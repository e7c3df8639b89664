package sim_test

// Tests of activities beyond the scripted tests in sim_test.go: the
// ScheduleArg delivery path, model-bug reporting, concurrently
// driven kernels, and allocation guards pinning the inline paths — a
// resumption is one recycled kernel event — at zero.

import (
	"errors"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// recTracer records (t, track, state) triples for trace comparison.
type recTracer struct {
	events []traceEvent
}

type traceEvent struct {
	t     sim.Time
	track string
	state string
}

func (r *recTracer) ProcState(t sim.Time, name, state string) {
	r.events = append(r.events, traceEvent{t, name, state})
}

// workerPlan is one worker's precomputed schedule: alternating waits and
// resource holds. Every run of a model consumes the same plans, so any
// trajectory difference is the kernel's fault, not sampling noise.
type workerPlan struct {
	waits []sim.Time
	holds []sim.Time
}

func makePlans(seed uint64, workers, steps int) []workerPlan {
	st := rng.New(seed)
	plans := make([]workerPlan, workers)
	for i := range plans {
		plans[i] = workerPlan{waits: make([]sim.Time, steps), holds: make([]sim.Time, steps)}
		for j := 0; j < steps; j++ {
			plans[i].waits[j] = st.Exp(3)
			plans[i].holds[j] = st.Exp(2)
		}
	}
	return plans
}

// planWorker executes one plan: wait, acquire, hold, release, repeat.
type planWorker struct {
	pl    *workerPlan
	r     *simtest.Resource
	step  int
	state int // 0: start wait; 1: acquire; 2: hold; 3: release
}

func (w *planWorker) Step(a *simtest.ActCtx) {
	for {
		switch w.state {
		case 0:
			if w.step >= len(w.pl.waits) {
				a.Exit()
				return
			}
			w.state = 1
			a.Wait(w.pl.waits[w.step])
			return
		case 1:
			w.state = 2
			if !w.r.Acquire(a, 1) {
				return
			}
		case 2:
			w.state = 3
			a.Wait(w.pl.holds[w.step])
			return
		case 3:
			w.r.Release(1)
			w.step++
			w.state = 0
		}
	}
}

func tracesEqual(a, b []traceEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScheduleArgDelivery: ScheduleArg delivers the argument without a
// per-call closure, in time order.
func TestScheduleArgDelivery(t *testing.T) {
	k := sim.NewKernel()
	var got []int
	deliver := func(x any) { got = append(got, x.(int)) }
	k.ScheduleArg(2, deliver, 7)
	k.ScheduleArg(1, deliver, 3)
	k.ScheduleArg(3, deliver, 9)
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("deliveries = %v, want [3 7 9]", got)
	}
}

// TestActivitySignalJoin: a signal joins several activities — the last
// member to finish triggers it — and the joiner resumes only after every
// member is done.
func TestActivitySignalJoin(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	j := &join{left: 4}
	var joinedAt sim.Time = -1
	for i := 0; i < 2; i++ {
		d := sim.Time(10 * (i + 1))
		env.Spawn("a", &delayedDone{j: j, d: d})
		env.Spawn("b", &delayedDone{j: j, d: d + 5})
	}
	env.Spawn("joiner", simtest.ActivityFunc(func(a *simtest.ActCtx) {
		if !j.sig.WaitAct(a) {
			return
		}
		joinedAt = a.Now()
		a.Exit()
	}))
	if _, err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if joinedAt != 25 {
		t.Fatalf("joined at %g, want 25 (the slowest member)", joinedAt)
	}
}

// join counts members down and fires its signal at zero.
type join struct {
	sig  simtest.Signal
	left int
}

type delayedDone struct {
	j     *join
	d     sim.Time
	state int
}

func (d *delayedDone) Step(a *simtest.ActCtx) {
	if d.state == 0 {
		d.state = 1
		a.Wait(d.d)
		return
	}
	if d.j.left--; d.j.left == 0 {
		d.j.sig.Trigger()
	}
	a.Exit()
}

// TestActivityDeadlockDetection: a blocked (queue-registered) activity
// with no events left is a deadlock; a dormant activity is not.
func TestActivityDeadlockDetection(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	s := simtest.NewStore[int](k)
	env.Spawn("starved", simtest.ActivityFunc(func(a *simtest.ActCtx) {
		if _, ok := s.GetAct(a); !ok {
			return
		}
		a.Exit()
	}))
	if _, err := env.RunUntilIdle(); !errors.Is(err, simtest.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}

	env2 := simtest.New(sim.NewKernel())
	env2.Spawn("dormant", simtest.ActivityFunc(func(a *simtest.ActCtx) {
		// Returns without pending work: an idle event-oriented server.
	}))
	if _, err := env2.RunUntilIdle(); err != nil {
		t.Fatalf("dormant activity reported: %v", err)
	}
}

// TestActivityPanicSurfaces: a panicking Step becomes the run's error
// instead of crashing whichever goroutine dispatched it.
func TestActivityPanicSurfaces(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	env.Spawn("bad", simtest.ActivityFunc(func(a *simtest.ActCtx) {
		panic("boom")
	}))
	_, err := env.RunUntilIdle()
	if err == nil {
		t.Fatal("activity panic did not surface")
	}
}

// TestActivityDoubleBlockPanics: issuing two pending resumptions in one
// step is a model bug and must be reported, not silently double-stepped.
func TestActivityDoubleBlockPanics(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	env.Spawn("greedy", simtest.ActivityFunc(func(a *simtest.ActCtx) {
		a.Wait(1)
		a.Wait(2)
	}))
	if _, err := env.RunUntilIdle(); err == nil {
		t.Fatal("double Wait in one step not reported")
	}
}

// TestActivityExitWhileRegisteredPanics: Exit with a wait-queue
// registration outstanding would leave a dead activity enqueued (and leak
// resource units at grant time); it must be reported as a model bug.
func TestActivityExitWhileRegisteredPanics(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	s := simtest.NewStore[int](k)
	env.Spawn("quitter", simtest.ActivityFunc(func(a *simtest.ActCtx) {
		if _, ok := s.GetAct(a); !ok {
			a.Exit() // bug: still registered as a getter
		}
	}))
	if _, err := env.RunUntilIdle(); err == nil {
		t.Fatal("Exit while registered not reported")
	}
}

// TestActivityCrossStoreGetPanics: a GetAct on a different store while a
// delivery is in flight on another store of the same element type must be
// reported, not silently collect the wrong store's item.
func TestActivityCrossStoreGetPanics(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	s1 := simtest.NewStore[int](k)
	s2 := simtest.NewStore[int](k)
	env.Spawn("confused", simtest.ActivityFunc(func(a *simtest.ActCtx) {
		if a.Now() == 0 {
			if _, ok := s1.GetAct(a); ok {
				t.Error("unexpected immediate delivery")
			}
			return
		}
		// Resumed by s1's delivery, but collects from s2: model bug.
		s2.GetAct(a)
	}))
	schedule(k, 1, func() { s1.Put(7) })
	if _, err := env.RunUntilIdle(); err == nil {
		t.Fatal("cross-store GetAct not reported")
	}
}

// TestMixedModelsParallelRace drives several independent kernels, each
// mixing resource workers, store producers and a draining consumer, from
// concurrent goroutines. Under -race this checks that kernels share no
// hidden package state.
func TestMixedModelsParallelRace(t *testing.T) {
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		seed := uint64(g + 1)
		go func() {
			k := sim.NewKernel()
			env := simtest.New(k)
			r := simtest.NewResource(k, 2)
			s := simtest.NewStore[int](k)
			plans := makePlans(seed, 4, 20)
			for i := range plans {
				env.Spawn("a", &planWorker{pl: &plans[i], r: r})
			}
			for i := 0; i < 4; i++ {
				var stages []stage
				for j := 0; j < 20; j++ {
					stages = append(stages, wait(0.7))
					stages = append(stages, hold(r, 0.3)...)
					stages = append(stages, put(s, i*100+j))
				}
				env.Spawn("p", run(stages...))
			}
			env.Spawn("drain", simtest.ActivityFunc(func(a *simtest.ActCtx) {
				for {
					if _, ok := s.GetAct(a); !ok {
						return
					}
				}
			}))
			_, err := env.RunUntilIdle()
			done <- err
		}()
	}
	for g := 0; g < 4; g++ {
		// The drain activity stays registered when the puts run out.
		if err := <-done; err != nil && !errors.Is(err, simtest.ErrDeadlock) {
			t.Error(err)
		}
	}
}

// TestWaitUntilIsExact: WaitUntil resumes at exactly the time given, not
// at now plus its difference from now, which rounds differently for some
// pairs of times; a time before now panics like a negative Wait.
func TestWaitUntilIsExact(t *testing.T) {
	start, until := sim.Time(0.2), sim.Time(0.9)
	if start+(until-start) == until {
		t.Fatal("the times must be a pair whose difference rounds")
	}
	k := sim.NewKernel()
	env := simtest.New(k)
	var got sim.Time
	steps := 0
	env.SpawnAt(start, "w", simtest.ActivityFunc(func(a *simtest.ActCtx) {
		steps++
		if steps == 1 {
			a.WaitUntil(until)
			return
		}
		got = a.Now()
		a.Exit()
	}))
	if _, err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got != until {
		t.Errorf("WaitUntil(%v) from %v resumed at %v", until, start, got)
	}
	k = sim.NewKernel()
	env = simtest.New(k)
	env.SpawnAt(1, "early", simtest.ActivityFunc(func(a *simtest.ActCtx) { a.WaitUntil(0.5) }))
	if _, err := env.RunUntilIdle(); err == nil {
		t.Error("WaitUntil before now did not fail the run")
	}
}

// --- Allocation regression guards -------------------------------------
//
// The activity satellites of the kernel_bench_test.go guards: the
// inline fast paths — Wait, Signal rounds, contended Acquire, store
// ping-pong — must stay allocation-free at steady state.

// TestActivityWaitAllocsPinned: the activity Wait/step cycle is
// allocation-free.
func TestActivityWaitAllocsPinned(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	var w waitLoopAct
	env.Spawn("w", &w)
	t.Cleanup(func() { _ = env.Run(k.Now()) })
	next := sim.Time(256)
	if err := k.Run(next); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		next += 256
		if err := k.Run(next); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state activity Wait allocates %.1f objects per 256-wait window, want 0", allocs)
	}
}

type waitLoopAct struct{}

func (*waitLoopAct) Step(a *simtest.ActCtx) { a.Wait(1) }

// TestActivitySignalAllocsPinned: a Trigger/Reset round over registered
// activity waiters is allocation-free at steady state.
func TestActivitySignalAllocsPinned(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	sig := &simtest.Signal{}
	var ws [4]sigLoopAct
	for i := range ws {
		ws[i].sig = sig
		env.Spawn("w", &ws[i])
	}
	round := func() { sig.Trigger(); sig.Reset() }
	t.Cleanup(func() { _ = env.Run(k.Now()) })
	next := sim.Time(0)
	window := func() {
		for j := 0; j < 64; j++ {
			schedule(k, sim.Time(j)+0.5, round)
		}
		next += 64
		if err := k.Run(next); err != nil {
			t.Fatal(err)
		}
	}
	window()
	allocs := testing.AllocsPerRun(100, func() { window() })
	if allocs != 0 {
		t.Errorf("steady-state Signal round allocates %.1f objects per 64-round window, want 0", allocs)
	}
	if ws[0].rounds == 0 {
		t.Fatal("no signal rounds observed")
	}
}

type sigLoopAct struct {
	sig    *simtest.Signal
	rounds int
}

func (s *sigLoopAct) Step(a *simtest.ActCtx) {
	s.rounds++
	if !s.sig.WaitAct(a) {
		return
	}
	// Already triggered: yield until the next round's registration window.
	a.Wait(1)
}

// TestActivityAcquireContendedAllocsPinned: contended activity acquires
// (queue registration, grant, resumption) are allocation-free.
func TestActivityAcquireContendedAllocsPinned(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	r := simtest.NewResource(k, 1)
	for i := 0; i < 3; i++ {
		env.Spawn("c", &contendLoopAct{r: r})
	}
	t.Cleanup(func() { _ = env.Run(k.Now()) })
	next := sim.Time(256)
	if err := k.Run(next); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		next += 256
		if err := k.Run(next); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state contended AcquireAct allocates %.1f objects per 256-cycle window, want 0", allocs)
	}
}

type contendLoopAct struct {
	r     *simtest.Resource
	state int
}

func (c *contendLoopAct) Step(a *simtest.ActCtx) {
	for {
		switch c.state {
		case 0:
			c.state = 1
			if !c.r.Acquire(a, 1) {
				return
			}
		case 1:
			c.state = 2
			a.Wait(1)
			return
		case 2:
			c.r.Release(1)
			c.state = 0
		}
	}
}

// TestActivityStoreAllocsPinned: the GetAct/Put ping-pong (register,
// deliver, collect) is allocation-free.
func TestActivityStoreAllocsPinned(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	s := simtest.NewStore[int](k)
	var g getLoopAct
	g.s = s
	env.Spawn("g", &g)
	feed := func() { s.Put(1) }
	t.Cleanup(func() { _ = env.Run(k.Now()) })
	next := sim.Time(0)
	window := func() {
		for j := 0; j < 64; j++ {
			schedule(k, sim.Time(j)+0.5, feed)
		}
		next += 64
		if err := k.Run(next); err != nil {
			t.Fatal(err)
		}
	}
	window()
	allocs := testing.AllocsPerRun(100, func() { window() })
	if allocs != 0 {
		t.Errorf("steady-state GetAct/Put allocates %.1f objects per 64-item window, want 0", allocs)
	}
	if g.got == 0 {
		t.Fatal("no items delivered")
	}
}

type getLoopAct struct {
	s   *simtest.Store[int]
	got int
}

func (g *getLoopAct) Step(a *simtest.ActCtx) {
	for {
		if _, ok := g.s.GetAct(a); !ok {
			return
		}
		g.got++
	}
}
