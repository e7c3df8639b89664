package sim_test

// Tests of a model split over several plain kernels ("shards") that run
// side by side — the way parcelsys runs its two systems — driven here by
// a gang (internal/gang) that advances every shard through the same
// windows. Shards share no state, so each must keep the trajectory its
// part of the model has on one serial kernel, for every shard count,
// worker count and placement of the model's copies: a fixed corpus in
// TestParKernelTraceEquivalence and a generator in FuzzParKernelTrace,
// both on activity models (internal/sim/simtest). The rest cover the
// run mechanics across shards — incremental Advance, one-round runs,
// model errors and deadlocks reported per shard, Stop, goroutine
// cleanup — and ScheduleArgAt, which replaced the partitioned kernel's
// SendAt. The test names are those of the partitioned kernel
// (ParKernel) these checks were first written for. Run under -race
// these tests also show that two kernels touch no common memory.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gang"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/testutil"
)

// shardRun is a model split over plain kernels that a gang drives side
// by side: each round, member m runs the round's operation on shards m,
// m+workers, m+2·workers, …
type shardRun struct {
	ks      []*sim.Kernel
	workers int
	g       *gang.Gang
	op      func(k *sim.Kernel) error
	errs    []error
}

func newShardRun(parts, workers int) *shardRun {
	r := &shardRun{ks: make([]*sim.Kernel, parts), workers: workers, errs: make([]error, parts)}
	for i := range r.ks {
		r.ks[i] = sim.NewKernel()
	}
	r.g = gang.New(workers, func(m int) {
		for i := m; i < len(r.ks); i += r.workers {
			r.errs[i] = r.op(r.ks[i])
		}
	})
	return r
}

// round runs op on every shard and returns the first shard's error, in
// shard order.
func (r *shardRun) round(op func(k *sim.Kernel) error) error {
	r.op = op
	r.g.Run()
	for _, err := range r.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Advance advances every shard to until.
func (r *shardRun) Advance(until sim.Time) error {
	return r.round(func(k *sim.Kernel) error { return k.Run(until) })
}

// Run advances every shard to until and closes the gang.
func (r *shardRun) Run(until sim.Time) error {
	defer r.Close()
	return r.Advance(until)
}

// RunUntilIdle runs every shard until it has no events left, closes the
// gang, and returns the latest shard clock: the time a serial kernel
// holding the whole model would stop at.
func (r *shardRun) RunUntilIdle() (sim.Time, error) {
	defer r.Close()
	err := r.round(func(k *sim.Kernel) error {
		_, err := k.RunUntilIdle()
		return err
	})
	return r.Now(), err
}

// Now is the latest shard clock.
func (r *shardRun) Now() sim.Time {
	var now sim.Time
	for _, k := range r.ks {
		now = max(now, k.Now())
	}
	return now
}

// Seq sums the shards' schedule counters: a run that scheduled exactly
// the serial run's events ends with the serial kernel's counter.
func (r *shardRun) Seq() uint64 {
	var seq uint64
	for _, k := range r.ks {
		seq += sim.KernelSeq(k)
	}
	return seq
}

// Close stops the gang's helpers; it is idempotent.
func (r *shardRun) Close() { r.g.Close() }

// envs gives each shard an activity roster.
func (r *shardRun) envs() []*simtest.Env {
	envs := make([]*simtest.Env, len(r.ks))
	for i, k := range r.ks {
		envs[i] = simtest.New(k)
	}
	return envs
}

// copyState is one replicated model copy: a resource contended by plan
// workers and store producers, a consumer draining the store, and a ping
// counter bumped only by the copy's own timed deliveries.
type copyState struct {
	g     int
	env   *simtest.Env
	res   *simtest.Resource
	box   *simtest.Store[int]
	got   int
	pings int
	track string // trace track of ping deliveries
}

// bumpPing is the ping delivery callback; it traces the delivery, so its
// position among the shard's other events is part of the compared
// trajectory.
func bumpPing(arg any) {
	cs := arg.(*copyState)
	cs.pings++
	if tr := cs.env.Tracer; tr != nil {
		tr.ProcState(cs.env.K.Now(), cs.track, "ping")
	}
}

// pinger schedules a timed ping to its copy between plan-driven waits.
type pinger struct {
	cs    *copyState
	waits []sim.Time
	i     int
}

func (p *pinger) Step(a *simtest.ActCtx) {
	if p.i > 0 {
		a.Kernel().ScheduleArg(1+sim.Time(p.i%3), bumpPing, p.cs)
	}
	if p.i >= len(p.waits) {
		a.Exit()
		return
	}
	a.Wait(p.waits[p.i])
	p.i++
}

// buildCopy constructs copy g on env's kernel, all workers contending
// one FIFO resource: odd-index workers follow their plan with
// planWorker; even-index workers run the same plan as a script that also
// puts one item per hold into a store, which a consumer drains.
func buildCopy(env *simtest.Env, g, capacity int, plans []workerPlan) *copyState {
	cs := &copyState{g: g, env: env, track: fmt.Sprintf("g%d/ping-in", g)}
	cs.res = simtest.NewResource(env.K, capacity)
	cs.box = simtest.NewStore[int](env.K)
	puts := 0
	for i := range plans {
		pl := &plans[i]
		name := fmt.Sprintf("g%d/w%d", g, i)
		if i%2 == 1 {
			env.Spawn(name, &planWorker{pl: pl, r: cs.res})
			continue
		}
		var stages []stage
		for j := range pl.waits {
			stages = append(stages, wait(pl.waits[j]))
			stages = append(stages, hold(cs.res, pl.holds[j])...)
			stages = append(stages, put(cs.box, j))
			puts++
		}
		env.Spawn(name, run(stages...))
	}
	env.Spawn(fmt.Sprintf("g%d/drain", g), &copyDrain{cs: cs, want: puts})
	return cs
}

// copyDrain takes the copy's items from its store, resting 0.5 after
// each, and exits after the last one.
type copyDrain struct {
	cs   *copyState
	want int
}

func (d *copyDrain) Step(a *simtest.ActCtx) {
	if d.cs.got == d.want {
		a.Exit()
		return
	}
	if _, ok := d.cs.box.GetAct(a); !ok {
		return
	}
	d.cs.got++
	a.Wait(0.5)
}

// parModelSpec is one generated workload: per-copy worker plans and ping
// waits, all pre-drawn so every run consumes identical numbers.
type parModelSpec struct {
	copies   int
	capacity int
	plans    [][]workerPlan
	pings    [][]sim.Time
}

func makeParModel(seed uint64, copies, workers, steps, pings int) parModelSpec {
	spec := parModelSpec{copies: copies, capacity: 1 + int(seed%3)}
	st := rng.New(seed ^ 0x9e3779b97f4a7c15)
	for g := 0; g < copies; g++ {
		spec.plans = append(spec.plans, makePlans(seed+uint64(g)*7919, workers, steps))
		pw := make([]sim.Time, pings)
		for i := range pw {
			pw[i] = 0.5 + st.Exp(2)
		}
		spec.pings = append(spec.pings, pw)
	}
	return spec
}

// snapToGrid rounds every drawn time up to a whole unit, so events of
// different copies on one shard coincide and their tie-breaking is
// exercised (with continuous draws, ties almost never happen).
func (spec parModelSpec) snapToGrid() {
	up := func(ts []sim.Time) {
		for i := range ts {
			ts[i] = math.Ceil(ts[i])
		}
	}
	for g := range spec.plans {
		for i := range spec.plans[g] {
			up(spec.plans[g][i].waits)
			up(spec.plans[g][i].holds)
		}
		up(spec.pings[g])
	}
}

// buildParModel lays the spec's copies out on the given per-copy rosters
// (all the same one for a serial run), each copy's pinger last, after
// every copy is built.
func buildParModel(spec parModelSpec, envFor func(g int) *simtest.Env) []*copyState {
	states := make([]*copyState, spec.copies)
	for g := 0; g < spec.copies; g++ {
		states[g] = buildCopy(envFor(g), g, spec.capacity, spec.plans[g])
	}
	for g := 0; g < spec.copies; g++ {
		envFor(g).Spawn(fmt.Sprintf("g%d/ping", g), &pinger{cs: states[g], waits: spec.pings[g]})
	}
	return states
}

// parRunResult is everything a run exposes for the byte-identity check.
type parRunResult struct {
	traces [][]traceEvent // per shard (one entry for the serial run)
	grants []int64
	got    []int
	pings  []int
	now    sim.Time
	seq    uint64
}

func (res *parRunResult) collect(states []*copyState) {
	for _, cs := range states {
		res.grants = append(res.grants, cs.res.Grants())
		res.got = append(res.got, cs.got)
		res.pings = append(res.pings, cs.pings)
	}
}

func runParModelSerial(spec parModelSpec) (parRunResult, error) {
	k := sim.NewKernel()
	env := simtest.New(k)
	rec := &recTracer{}
	env.Tracer = rec
	states := buildParModel(spec, func(int) *simtest.Env { return env })
	now, err := env.RunUntilIdle()
	res := parRunResult{traces: [][]traceEvent{rec.events}, now: now, seq: sim.KernelSeq(k)}
	res.collect(states)
	return res, err
}

// runParModelSharded runs spec with copy g on shard assign(g), through
// unit-wide Advance windows up to half the serial run's final time
// (halfway), then to idle in one round.
func runParModelSharded(spec parModelSpec, parts, workers int, assign func(g int) int, halfway sim.Time) (parRunResult, error) {
	r := newShardRun(parts, workers)
	defer r.Close()
	envs := r.envs()
	recs := make([]*recTracer, parts)
	for i := range recs {
		recs[i] = &recTracer{}
		envs[i].Tracer = recs[i]
	}
	states := buildParModel(spec, func(g int) *simtest.Env { return envs[assign(g)] })
	var err error
	for until := sim.Time(1); until < halfway && err == nil; until++ {
		err = r.Advance(until)
	}
	now := r.Now()
	if err == nil {
		now, err = r.RunUntilIdle()
	}
	for _, env := range envs {
		if err == nil {
			err = env.Deadlock()
		}
		env.Finish()
	}
	res := parRunResult{now: now, seq: r.Seq()}
	for _, rec := range recs {
		res.traces = append(res.traces, rec.events)
	}
	res.collect(states)
	return res, err
}

// copyOfTrack extracts the copy index from a "g<N>/..." track name.
func copyOfTrack(track string) int {
	rest := strings.TrimPrefix(track, "g")
	i := strings.IndexByte(rest, '/')
	g, err := strconv.Atoi(rest[:i])
	if err != nil {
		panic("unparseable track " + track)
	}
	return g
}

// filterTrace restricts a serial trace to the copies a shard owns.
func filterTrace(events []traceEvent, assign func(g int) int, part int) []traceEvent {
	out := []traceEvent{}
	for _, e := range events {
		if assign(copyOfTrack(e.track)) == part {
			out = append(out, e)
		}
	}
	return out
}

// parAssignments is the shard-assignment corpus for model copies:
// contiguous blocks and strided round-robin.
func parAssignments(copies, parts int) map[string]func(g int) int {
	return map[string]func(g int) int{
		"contig":  func(g int) int { return g * parts / copies },
		"strided": func(g int) int { return g % parts },
	}
}

// checkParEquivalence runs spec sharded and compares it with the serial
// run want: per-shard traces equal to the serial trace restricted to
// each shard's copies, identical grant, drain and ping counts, identical
// final time, and the serial final value of the schedule counter summed
// over the shards.
func checkParEquivalence(t *testing.T, spec parModelSpec, want parRunResult, parts, workers int, assign func(g int) int) {
	t.Helper()
	got, err := runParModelSharded(spec, parts, workers, assign, want.now/2)
	if err != nil {
		t.Fatal(err)
	}
	if got.now != want.now {
		t.Fatalf("final time %g, serial %g", got.now, want.now)
	}
	if got.seq != want.seq {
		t.Fatalf("schedule counters sum to %d, serial %d", got.seq, want.seq)
	}
	for g := 0; g < spec.copies; g++ {
		if got.grants[g] != want.grants[g] || got.got[g] != want.got[g] || got.pings[g] != want.pings[g] {
			t.Fatalf("copy %d grants/drained/pings %d/%d/%d, serial %d/%d/%d", g,
				got.grants[g], got.got[g], got.pings[g], want.grants[g], want.got[g], want.pings[g])
		}
	}
	for p := 0; p < parts; p++ {
		ref := filterTrace(want.traces[0], assign, p)
		if !tracesEqual(got.traces[p], ref) {
			t.Fatalf("shard %d trace diverges from serial restriction (%d vs %d events)",
				p, len(got.traces[p]), len(ref))
		}
	}
}

// TestParKernelTraceEquivalence: the replicated model, its copies spread
// over side-by-side shards, reproduces the serial kernel's exact
// trajectory (see checkParEquivalence) for every tested shard count,
// worker count, and assignment function, both with continuous times and
// snapped to a whole-unit grid.
func TestParKernelTraceEquivalence(t *testing.T) {
	const copies = 8
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		spec := makeParModel(seed, copies, 4, 6, 10)
		grid := makeParModel(seed, copies, 4, 6, 10)
		grid.snapToGrid()
		want, err := runParModelSerial(spec)
		if err != nil {
			t.Fatalf("seed %d: serial run: %v", seed, err)
		}
		wantGrid, err := runParModelSerial(grid)
		if err != nil {
			t.Fatalf("seed %d: serial run on the grid: %v", seed, err)
		}
		for _, parts := range []int{1, 2, 4, 7} {
			for aname, assign := range parAssignments(copies, parts) {
				for _, workers := range []int{1, 2, parts} {
					name := fmt.Sprintf("seed%d/p%d/%s/w%d", seed, parts, aname, workers)
					t.Run(name, func(t *testing.T) {
						checkParEquivalence(t, spec, want, parts, workers, assign)
						checkParEquivalence(t, grid, wantGrid, parts, workers, assign)
					})
				}
			}
		}
	}
}

// FuzzParKernelTrace generates the equivalence check's inputs: the model
// seed (which also sizes each copy), the number of copies, the shard
// and worker counts, whether times snap to a whole-unit grid, and an
// arbitrary copy-to-shard assignment (copy g goes to shard
// assign[g mod len] mod parts; strided when assign is empty).
func FuzzParKernelTrace(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(4), uint8(2), false, []byte{})
	f.Add(uint64(7), uint8(5), uint8(3), uint8(3), true, []byte{0, 0, 2, 1, 2})
	f.Fuzz(func(t *testing.T, seed uint64, copiesRaw, partsRaw, workersRaw uint8, grid bool, assignRaw []byte) {
		copies := 1 + int(copiesRaw%10)
		parts := 1 + int(partsRaw%8)
		workers := 1 + int(workersRaw)%parts
		assign := func(g int) int { return g % parts }
		if len(assignRaw) > 0 {
			assign = func(g int) int { return int(assignRaw[g%len(assignRaw)]) % parts }
		}
		spec := makeParModel(seed, copies, 1+int(seed%4), 1+int(seed>>2%6), 1+int(seed>>5%10))
		if grid {
			spec.snapToGrid()
		}
		want, err := runParModelSerial(spec)
		if err != nil {
			t.Fatalf("serial run: %v", err)
		}
		checkParEquivalence(t, spec, want, parts, workers, assign)
	})
}

// TestParKernelAdvanceIncremental: driving the shards through repeated
// Advance windows (with an explicit Close) leaves every shard's clock at
// each window's end and reaches the same state as one big Advance.
func TestParKernelAdvanceIncremental(t *testing.T) {
	spec := makeParModel(11, 6, 3, 5, 8)
	assign := func(g int) int { return g % 3 }

	run := func(steps []sim.Time) (int, sim.Time) {
		r := newShardRun(3, 3)
		envs := r.envs()
		states := buildParModel(spec, func(g int) *simtest.Env { return envs[assign(g)] })
		for _, until := range steps {
			if err := r.Advance(until); err != nil {
				t.Fatal(err)
			}
			for i, k := range r.ks {
				if k.Now() != until {
					t.Fatalf("shard %d: Now = %g after Advance(%g)", i, k.Now(), until)
				}
			}
		}
		r.Close()
		total := 0
		for _, cs := range states {
			total += cs.pings
		}
		return total, r.Now()
	}

	var chunks []sim.Time
	for u := sim.Time(4); u <= 60; u += 4 {
		chunks = append(chunks, u)
	}
	gotPings, gotNow := run(chunks)
	wantPings, wantNow := run([]sim.Time{60})
	if gotPings != wantPings || gotNow != wantNow {
		t.Fatalf("incremental Advance: %d pings at %g, one-shot: %d pings at %g",
			gotPings, gotNow, wantPings, wantNow)
	}
}

// TestParKernelInfiniteLookahead: copies that never interact need no
// windows at all — one gang round runs every shard to idle — and still
// match the serial kernel exactly.
func TestParKernelInfiniteLookahead(t *testing.T) {
	spec := makeParModel(21, 6, 4, 6, 0)
	spec.pings = make([][]sim.Time, spec.copies) // no pings at all

	senv := simtest.New(sim.NewKernel())
	serialStates := make([]*copyState, spec.copies)
	for g := 0; g < spec.copies; g++ {
		serialStates[g] = buildCopy(senv, g, spec.capacity, spec.plans[g])
	}
	wantNow, err := senv.RunUntilIdle()
	if err != nil {
		t.Fatal(err)
	}

	r := newShardRun(4, 4)
	envs := r.envs()
	assign := func(g int) int { return g % 4 }
	states := make([]*copyState, spec.copies)
	for g := 0; g < spec.copies; g++ {
		states[g] = buildCopy(envs[assign(g)], g, spec.capacity, spec.plans[g])
	}
	gotNow, err := r.RunUntilIdle()
	if err != nil {
		t.Fatal(err)
	}
	if gotNow != wantNow {
		t.Fatalf("final time %g, serial %g", gotNow, wantNow)
	}
	for g := range states {
		if states[g].res.Grants() != serialStates[g].res.Grants() {
			t.Fatalf("copy %d grants %d, serial %d", g, states[g].res.Grants(), serialStates[g].res.Grants())
		}
	}
}

// TestParKernelSendLookaheadViolation: a model bug on one shard — here
// an event scheduled before now — surfaces as the run's error, not a
// crash, and the other shards still run to their end.
func TestParKernelSendLookaheadViolation(t *testing.T) {
	r := newShardRun(2, 2)
	k0, k1 := r.ks[0], r.ks[1]
	schedule(k1, 1, func() { k1.ScheduleArgAt(0.5, func(any) {}, nil) })
	schedule(k0, 7, func() {})
	_, err := r.RunUntilIdle()
	if err == nil || !strings.Contains(err.Error(), "before now") {
		t.Fatalf("err = %v, want a past-time error", err)
	}
	if k0.Now() != 7 {
		t.Fatalf("the healthy shard stopped at %g, want 7", k0.Now())
	}
}

// TestParKernelSendAt: ScheduleArgAt lands at exactly the absolute time
// it is given, where now plus the difference would round elsewhere, on
// one shard and on each of two side by side.
func TestParKernelSendAt(t *testing.T) {
	const from, at = 0.2, 0.9 // 0.2 + (0.9-0.2) != 0.9 in float64
	if f, a := sim.Time(from), sim.Time(at); f+(a-f) == a {
		t.Fatal("the times no longer round apart")
	}
	for _, parts := range []int{1, 2} {
		r := newShardRun(parts, parts)
		// One slot per shard, each written only on its own shard.
		got := make([]sim.Time, parts)
		for i, k := range r.ks {
			schedule(k, from, func() {
				k.ScheduleArgAt(at, func(any) { got[i] = k.Now() }, nil)
			})
		}
		if err := r.Run(2); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != at {
				t.Errorf("%d shards: shard %d landed at %v, want %v", parts, i, got[i], at)
			}
		}
	}
}

// TestParKernelDeadlockParity: a starved activity on one shard is
// reported as a deadlock on that shard only, exactly as on the serial
// kernel.
func TestParKernelDeadlockParity(t *testing.T) {
	build := func(env *simtest.Env) {
		s := simtest.NewStore[int](env.K)
		env.Spawn("starved", run(get(s, nil)))
	}
	senv := simtest.New(sim.NewKernel())
	build(senv)
	if _, err := senv.RunUntilIdle(); !errors.Is(err, simtest.ErrDeadlock) {
		t.Fatalf("serial err = %v, want ErrDeadlock", err)
	}
	r := newShardRun(3, 2)
	envs := r.envs()
	build(envs[1])
	if _, err := r.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, env := range envs {
		if err := env.Deadlock(); (i == 1) != errors.Is(err, simtest.ErrDeadlock) {
			t.Fatalf("shard %d: err = %v, want ErrDeadlock on shard 1 only", i, err)
		}
	}
}

// TestParKernelSetupSend: events scheduled while no shard runs — at
// model setup, and between Advance windows — fire at their times, in
// order.
func TestParKernelSetupSend(t *testing.T) {
	r := newShardRun(2, 2)
	defer r.Close()
	var got []string
	deliver := func(k *sim.Kernel) func(any) {
		return func(arg any) { got = append(got, fmt.Sprintf("%s@%g", arg, k.Now())) }
	}
	r.ks[1].ScheduleArg(3, deliver(r.ks[1]), "setup")
	if err := r.Advance(10); err != nil {
		t.Fatal(err)
	}
	r.ks[0].ScheduleArg(2, deliver(r.ks[0]), "between")
	if err := r.Advance(20); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "setup@3" || got[1] != "between@12" {
		t.Fatalf("deliveries = %v", got)
	}
}

// tickShards schedules a self-rescheduling tick on every shard of r,
// one per time unit up to last, each also scheduling a ping one unit
// ahead, and returns the per-shard tick counts. When stopAt > 0, shard 1
// stops its kernel at that time.
func tickShards(r *shardRun, last, stopAt sim.Time) []int {
	ticks := make([]int, len(r.ks))
	for i, k := range r.ks {
		var tick func()
		tick = func() {
			ticks[i]++
			if i == 1 && k.Now() == stopAt {
				k.Stop()
				return
			}
			k.ScheduleArg(1, func(any) {}, nil)
			if k.Now() < last {
				schedule(k, 1, tick)
			}
		}
		schedule(k, 1, tick)
	}
	return ticks
}

// TestParKernelLeavesNoGoroutines: Run and RunUntilIdle stop the gang's
// helpers on completion, and Close stops them after Advance, so the
// goroutine count returns to where it was.
func TestParKernelLeavesNoGoroutines(t *testing.T) {
	drives := []struct {
		name  string
		drive func(r *shardRun) error
	}{
		{"Run", func(r *shardRun) error { return r.Run(30) }},
		{"RunUntilIdle", func(r *shardRun) error {
			_, err := r.RunUntilIdle()
			return err
		}},
		{"Advance+Close", func(r *shardRun) error {
			defer r.Close()
			if err := r.Advance(10); err != nil {
				return err
			}
			return r.Advance(30)
		}},
	}
	for _, d := range drives {
		name, drive := d.name, d.drive
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			r := newShardRun(3, 3)
			tickShards(r, 20, 0)
			if err := drive(r); err != nil {
				t.Fatal(err)
			}
			testutil.WaitGoroutines(t, base, name)
		})
	}
}

// TestParKernelStopIsFinal: a Stop from model code halts its shard for
// good — every later Advance or RunUntilIdle dispatches nothing there
// and returns ErrStopped — while the other shards run on.
func TestParKernelStopIsFinal(t *testing.T) {
	base := runtime.NumGoroutine()
	r := newShardRun(3, 3)
	ticks := tickShards(r, 100, 5)
	if err := r.Advance(50); err != nil {
		t.Fatalf("the Advance that stops: %v", err)
	}
	k1 := r.ks[1]
	now, before := k1.Now(), ticks[1]
	if now != 5 {
		t.Fatalf("stopped shard at %g after a Stop at 5", now)
	}
	if err := r.Advance(80); !errors.Is(err, sim.ErrStopped) {
		t.Fatalf("Advance after Stop: err = %v, want ErrStopped", err)
	}
	if _, err := r.RunUntilIdle(); !errors.Is(err, sim.ErrStopped) {
		t.Fatalf("RunUntilIdle after Stop: err = %v, want ErrStopped", err)
	}
	if k1.Now() != now || ticks[1] != before {
		t.Fatalf("the stopped shard moved: Now %g -> %g, ticks %d -> %d", now, k1.Now(), before, ticks[1])
	}
	if ticks[0] != 100 || ticks[2] != 100 || r.ks[0].Now() != 101 {
		t.Fatalf("the other shards did not run on: ticks %v, shard 0 at %g", ticks, r.ks[0].Now())
	}
	testutil.WaitGoroutines(t, base, "after RunUntilIdle on the stopped shard")
}
