package sim_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// The kernel's own tests, and tests of the activity layer the kernel's
// models were first written on (internal/sim/simtest), which the oracles
// still use: waits, FIFO resources, stores and signals on the kernel's
// events.

// stage is one step of a scripted test activity. It is called again at
// every resumption until it reports done; the script then moves on to the
// next stage inline.
type stage func(a *simtest.ActCtx) (done bool)

// script is a test activity that runs its stages in order and exits after
// the last one, so straight-line test models read like the sequential
// code they describe.
type script []stage

func (s *script) Step(a *simtest.ActCtx) {
	for len(*s) > 0 {
		if !(*s)[0](a) {
			return
		}
		*s = (*s)[1:]
	}
	a.Exit()
}

// run builds a scripted activity from stages.
func run(stages ...stage) *script {
	s := script(stages)
	return &s
}

// once turns a call that may register or schedule a resumption into a
// stage: the first call reports f's answer, the call at the resumption
// reports done.
func once(f func(a *simtest.ActCtx) bool) stage {
	called := false
	return func(a *simtest.ActCtx) bool {
		if called {
			return true
		}
		called = true
		return f(a)
	}
}

// do runs f inline and moves on.
func do(f func(a *simtest.ActCtx)) stage {
	return func(a *simtest.ActCtx) bool { f(a); return true }
}

// wait waits d.
func wait(d sim.Time) stage {
	return once(func(a *simtest.ActCtx) bool { a.Wait(d); return false })
}

// acquire takes n units of r.
func acquire(r *simtest.Resource, n int) stage {
	return once(func(a *simtest.ActCtx) bool { return r.Acquire(a, n) })
}

// release returns n units of r.
func release(r *simtest.Resource, n int) stage {
	return do(func(*simtest.ActCtx) { r.Release(n) })
}

// hold acquires one unit of r, keeps it for d and releases it.
func hold(r *simtest.Resource, d sim.Time) []stage {
	return []stage{acquire(r, 1), wait(d), release(r, 1)}
}

// get takes one item from s and hands it to f (which may be nil).
func get[T any](s *simtest.Store[T], f func(a *simtest.ActCtx, v T)) stage {
	return func(a *simtest.ActCtx) bool {
		v, ok := s.GetAct(a)
		if ok && f != nil {
			f(a, v)
		}
		return ok
	}
}

// schedule runs fn after delay d on k: the closure travels as the
// argument of one shared callback.
func schedule(k *sim.Kernel, d sim.Time, fn func()) { k.ScheduleArg(d, callFunc, fn) }

func callFunc(fn any) { fn.(func())() }

// put adds v to s.
func put[T any](s *simtest.Store[T], v T) stage {
	return do(func(*simtest.ActCtx) { s.Put(v) })
}

func TestScheduleOrdering(t *testing.T) {
	k := sim.NewKernel()
	var order []int
	schedule(k, 5, func() { order = append(order, 2) })
	schedule(k, 1, func() { order = append(order, 1) })
	schedule(k, 5, func() { order = append(order, 3) }) // same time: schedule order
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v, want %v", order, want)
		}
	}
	if k.Now() != 10 {
		t.Errorf("Now() = %g, want 10", k.Now())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	k := sim.NewKernel()
	schedule(k, 5, func() {})
	if err := k.Run(5); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.ScheduleArgAt(1, func(any) {}, nil)
}

func TestProcessWait(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	var times []sim.Time
	stamp := do(func(a *simtest.ActCtx) { times = append(times, a.Now()) })
	env.Spawn("p", run(stamp, wait(3), stamp, wait(4), stamp))
	if err := env.Run(100); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{0, 3, 7}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	var start sim.Time = -1
	env.SpawnAt(42, "late", run(do(func(a *simtest.ActCtx) { start = a.Now() })))
	if err := env.Run(100); err != nil {
		t.Fatal(err)
	}
	if start != 42 {
		t.Errorf("activity started at %g, want 42", start)
	}
}

func TestRunKillsBlockedProcesses(t *testing.T) {
	// Run finishes every activity still live at the horizon: one waiting
	// on a timer and one registered in an empty store.
	k := sim.NewKernel()
	env := simtest.New(k)
	reached := false
	sleeper := env.Spawn("sleeper", run(wait(1000), do(func(*simtest.ActCtx) { reached = true })))
	s := simtest.NewStore[int](k)
	getter := env.Spawn("getter", run(get(s, nil)))
	if err := env.Run(10); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("finished activity continued past end of run")
	}
	if !sleeper.Done() || !getter.Done() {
		t.Fatalf("activities live after Run: sleeper done %v, getter done %v", sleeper.Done(), getter.Done())
	}
	// The leftover timer event must not step the finished activity.
	if _, err := k.RunUntilIdle(); err != nil || reached {
		t.Fatalf("leftover event after Run: err=%v reached=%v", err, reached)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	env.Spawn("bad", run(wait(1), do(func(*simtest.ActCtx) { panic("model bug") })))
	err := env.Run(10)
	if err == nil {
		t.Fatal("expected error from panicking activity")
	}
}

func TestRunUntilIdle(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	var end sim.Time
	env.Spawn("p", run(wait(7), do(func(a *simtest.ActCtx) { end = a.Now() })))
	final, err := env.RunUntilIdle()
	if err != nil {
		t.Fatal(err)
	}
	if end != 7 || final != 7 {
		t.Errorf("end=%g final=%g, want 7", end, final)
	}
}

func TestRunUntilIdleDeadlock(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	never := &simtest.Signal{}
	env.Spawn("stuck", run(once(never.WaitAct)))
	_, err := env.RunUntilIdle()
	if !errors.Is(err, simtest.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	r := simtest.NewResource(k, 1)
	var maxConc, conc int
	for i := 0; i < 5; i++ {
		env.Spawn("worker", run(
			acquire(r, 1),
			do(func(*simtest.ActCtx) {
				conc++
				if conc > maxConc {
					maxConc = conc
				}
			}),
			wait(2),
			do(func(*simtest.ActCtx) { conc-- }),
			release(r, 1),
		))
	}
	if _, err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if maxConc != 1 {
		t.Errorf("max concurrency %d on capacity-1 resource", maxConc)
	}
	if r.Grants() != 5 {
		t.Errorf("grants = %d, want 5", r.Grants())
	}
}

// grantOrder runs four one-unit requesters arriving at t = 0, 1, 2, 3
// against a capacity-1 resource, each holding it for 10, and returns the
// order in which they were granted.
func grantOrder(t *testing.T) []int {
	t.Helper()
	k := sim.NewKernel()
	env := simtest.New(k)
	r := simtest.NewResource(k, 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		env.SpawnAt(sim.Time(i), "w", run(
			acquire(r, 1),
			do(func(*simtest.ActCtx) { order = append(order, i) }),
			wait(10),
			release(r, 1),
		))
	}
	if _, err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	return order
}

func TestResourceFIFOOrder(t *testing.T) {
	order := grantOrder(t)
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO order violated: %v", order)
		}
	}
}

func TestResourceNUnitGrants(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	r := simtest.NewResource(k, 4)
	var events []string
	note := func(e string) stage { return do(func(*simtest.ActCtx) { events = append(events, e) }) }
	env.Spawn("big", run(acquire(r, 3), note("big+"), wait(10), release(r, 3), note("big-")))
	// bigger must wait for all 4 units; small finds 1 unit free but must
	// not bypass the FIFO head.
	env.SpawnAt(1, "bigger", run(acquire(r, 4), note("bigger+"), release(r, 4)))
	env.SpawnAt(2, "small", run(acquire(r, 1), note("small+"), release(r, 1)))
	if _, err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []string{"big+", "big-", "bigger+", "small+"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	r := simtest.NewResource(k, 1)
	env.Spawn("p", run(hold(r, 30)...))
	if err := env.Run(100); err != nil {
		t.Fatal(err)
	}
	if u := r.Utilization(k.Now()); math.Abs(u-0.3) > 1e-12 {
		t.Errorf("utilization = %g, want 0.3", u)
	}
}

func TestStoreFIFO(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	s := simtest.NewStore[int](k)
	var got []int
	take := get(s, func(_ *simtest.ActCtx, v int) { got = append(got, v) })
	env.Spawn("consumer", run(take, take, take))
	env.Spawn("producer", run(wait(1), put(s, 1), wait(1), put(s, 2), wait(1), put(s, 3)))
	if _, err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("got %v", got)
		}
	}
}

func TestStoreGetBlocksUntilPut(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	s := simtest.NewStore[string](k)
	var when sim.Time
	env.Spawn("consumer", run(get(s, func(a *simtest.ActCtx, _ string) { when = a.Now() })))
	env.SpawnAt(9, "producer", run(put(s, "x")))
	if _, err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if when != 9 {
		t.Errorf("Get unblocked at %g, want 9", when)
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	sig := &simtest.Signal{}
	var woke []sim.Time
	for i := 0; i < 3; i++ {
		env.Spawn("waiter", run(
			once(sig.WaitAct),
			do(func(a *simtest.ActCtx) { woke = append(woke, a.Now()) }),
		))
	}
	schedule(k, 4, sig.Trigger)
	if _, err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 4 {
			t.Errorf("waiter woke at %g, want 4", w)
		}
	}
	// A wait after the trigger returns immediately.
	k2 := sim.NewKernel()
	env2 := simtest.New(k2)
	sig2 := &simtest.Signal{}
	sig2.Trigger()
	var at sim.Time = -1
	env2.Spawn("late", run(once(sig2.WaitAct), do(func(a *simtest.ActCtx) { at = a.Now() })))
	if _, err := env2.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Errorf("late waiter returned at %g, want 0", at)
	}
}

func TestDeterminism(t *testing.T) {
	run1 := func(seed uint64) []float64 {
		k := sim.NewKernel()
		env := simtest.New(k)
		r := simtest.NewResource(k, 2)
		st := rng.New(seed)
		var finish []float64
		for i := 0; i < 50; i++ {
			// Durations are drawn when the activity reaches them, so the
			// shared stream is consumed in event order.
			draw := func(mean float64) stage {
				return once(func(a *simtest.ActCtx) bool { a.Wait(st.Exp(mean)); return false })
			}
			env.Spawn("job", run(
				draw(3),
				acquire(r, 1),
				draw(5),
				release(r, 1),
				do(func(a *simtest.ActCtx) { finish = append(finish, a.Now()) }),
			))
		}
		if _, err := env.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return finish
	}
	a, b := run1(12345), run1(12345)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectory diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
	c := run1(54321)
	same := true
	for i := range a {
		if i >= len(c) || a[i] != c[i] {
			same = false
			break
		}
	}
	if same && len(a) == len(c) {
		t.Error("different seeds produced identical trajectories")
	}
}

// TestYieldRunsSameTimeEvents: a zero wait yields — every other event
// at the current instant runs before the activity's next step.
func TestYieldRunsSameTimeEvents(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	var order []string
	note := func(e string) stage { return do(func(*simtest.ActCtx) { order = append(order, e) }) }
	yield := once(func(a *simtest.ActCtx) bool { a.Wait(0); return false })
	env.Spawn("a", run(note("a1"), yield, note("a2")))
	env.Spawn("b", run(note("b1")))
	if _, err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestStopEndsRun(t *testing.T) {
	k := sim.NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count == 5 {
			k.Stop()
			return
		}
		schedule(k, 1, tick)
	}
	schedule(k, 1, tick)
	if err := k.Run(1000); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if k.Now() != 5 {
		t.Errorf("Now = %g, want 5", k.Now())
	}
}

// TestStopIsFinal: after a Stop, every later Run or RunUntilIdle
// dispatches nothing, leaves Now() where the run stopped and returns
// ErrStopped; after a model panic, which also stops the kernel,
// they return the panic's error.
func TestStopIsFinal(t *testing.T) {
	k := sim.NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count == 5 {
			k.Stop()
		}
		schedule(k, 1, tick)
	}
	schedule(k, 1, tick)
	if err := k.Run(1000); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(2000); !errors.Is(err, sim.ErrStopped) {
		t.Errorf("Run after Stop: err = %v, want ErrStopped", err)
	}
	if now, err := k.RunUntilIdle(); !errors.Is(err, sim.ErrStopped) || now != 5 {
		t.Errorf("RunUntilIdle after Stop: (%g, %v), want (5, ErrStopped)", now, err)
	}
	if count != 5 || k.Now() != 5 {
		t.Errorf("a stopped kernel moved: count %d, Now %g; want 5 and 5", count, k.Now())
	}

	k = sim.NewKernel()
	schedule(k, 1, func() { panic("boom") })
	first := k.Run(10)
	if first == nil {
		t.Fatal("a panicking callback returned no error")
	}
	if err := k.Run(20); err != first {
		t.Errorf("Run after a model panic: err = %v, want the panic's %v", err, first)
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	env.Spawn("bad", run(wait(-1)))
	if err := env.Run(1); err == nil {
		t.Fatal("expected error from negative Wait")
	}
}

func TestResourceQueueStats(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	r := simtest.NewResource(k, 1)
	// Two jobs: first holds [0,10], second arrives at 0 and waits 10.
	env.Spawn("first", run(hold(r, 10)...))
	env.Spawn("second", run(hold(r, 10)...))
	if _, err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if w := r.WaitTime.Max(); math.Abs(w-10) > 1e-9 {
		t.Errorf("max wait = %g, want 10", w)
	}
	// Average queue length over [0,20]: one waiter during [0,10] = 0.5.
	if ql := r.QueueLen.Mean(k.Now()); math.Abs(ql-0.5) > 1e-9 {
		t.Errorf("mean queue length = %g, want 0.5", ql)
	}
}

func TestNestedRunFromCallbackErrors(t *testing.T) {
	// Run from inside the simulation would clobber the active drain
	// window; it must surface as a run error, never hang.
	k := sim.NewKernel()
	schedule(k, 1, func() { _ = k.Run(50) })
	err := k.Run(10)
	if err == nil {
		t.Fatal("nested Run from a callback did not error")
	}

	k2 := sim.NewKernel()
	env2 := simtest.New(k2)
	env2.Spawn("p", run(wait(1), do(func(a *simtest.ActCtx) { _ = a.Kernel().Run(50) })))
	if err := env2.Run(10); err == nil {
		t.Fatal("nested Run from an activity did not error")
	}
}

// resetModel is a self-rescheduling model whose events spread over every
// tier of the queue: whole cycles a few ahead (the near wheel), hundreds
// to thousands ahead (the far wheel and the heap past it) and fractional
// times (the heap). Each firing logs its time and schedules one more.
type resetModel struct {
	k   *sim.Kernel
	st  rng.Stream
	fn  func(any)
	log []sim.Time
}

func (m *resetModel) fire(any) {
	m.log = append(m.log, m.k.Now())
	switch m.st.Intn(4) {
	case 0:
		m.k.ScheduleArg(sim.Time(1+m.st.Intn(100)), m.fn, nil)
	case 1:
		m.k.ScheduleArg(sim.Time(200+m.st.Intn(6000)), m.fn, nil)
	default:
		m.k.ScheduleArg(50*m.st.Float64(), m.fn, nil)
	}
}

// run seeds 16 events and runs the model on k to time 3000, which leaves
// events pending in every tier.
func (m *resetModel) run(k *sim.Kernel, seed uint64) error {
	m.k, m.log = k, m.log[:0]
	m.st.Reseed(seed, 1)
	if m.fn == nil {
		m.fn = m.fire
	}
	for i := 0; i < 16; i++ {
		k.ScheduleArg(sim.Time(i*37%101), m.fn, nil)
	}
	return k.Run(3000)
}

// TestResetMatchesFreshKernel runs a model on one kernel again and again,
// Reset between runs — with events pending in every queue tier, and
// after a model panic stopped it — and holds each run to the same model
// on a new kernel: the same firing times, schedule counter, clock and
// pending events. Once warm, a run on the reset kernel allocates nothing.
func TestResetMatchesFreshKernel(t *testing.T) {
	reused := sim.NewKernel()
	var got, want resetModel
	for seed := uint64(1); seed <= 6; seed++ {
		reused.Reset()
		if seed == 4 {
			schedule(reused, 1, func() { panic("boom") })
			if err := reused.Run(10); err == nil {
				t.Fatal("a panicking callback returned no error")
			}
			reused.Reset()
		}
		fresh := sim.NewKernel()
		if err := got.run(reused, seed); err != nil {
			t.Fatal(err)
		}
		if err := want.run(fresh, seed); err != nil {
			t.Fatal(err)
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d firings on the reset kernel, %d on a new one", seed, len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: firing %d at %g on the reset kernel, %g on a new one", seed, i, got.log[i], want.log[i])
			}
		}
		if sim.KernelSeq(reused) != sim.KernelSeq(fresh) || reused.Now() != fresh.Now() ||
			reused.PendingEvents() != fresh.PendingEvents() {
			t.Errorf("seed %d: reset kernel ends at (seq %d, now %g, %d pending), new one at (%d, %g, %d)", seed,
				sim.KernelSeq(reused), reused.Now(), reused.PendingEvents(),
				sim.KernelSeq(fresh), fresh.Now(), fresh.PendingEvents())
		}
		if fresh.PendingEvents() == 0 {
			t.Errorf("seed %d: no events pending at the horizon; Reset drops none", seed)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		reused.Reset()
		if err := got.run(reused, 6); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a run on a reset kernel made %v allocations, want 0", allocs)
	}
}
