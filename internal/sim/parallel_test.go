package sim_test

// Tests of the partitioned kernel (parallel.go): byte-identical
// trajectories against the serial kernel across partition counts, worker
// counts and partition assignments — a fixed corpus in
// TestParKernelTraceEquivalence and a generator in FuzzParKernelTrace,
// both on activity models (internal/sim/simtest) — plus the window
// mechanics (incremental Advance, infinite lookahead, lookahead
// violation surfacing, deadlock parity). Run under -race these tests
// also prove the window discipline keeps shard state single-threaded.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/testutil"
)

// copyState is one replicated model copy: a resource contended by plan
// workers and store producers, a consumer draining the store, and a ping
// counter bumped only by cross-copy
// deliveries (so it exercises the barrier merge when copies land on
// different partitions).
type copyState struct {
	g     int
	env   *simtest.Env
	res   *simtest.Resource
	box   *simtest.Store[int]
	got   int
	pings int
	track string // trace track of ping deliveries
}

// bumpPing is the cross-copy delivery callback; it runs on the
// destination copy's kernel and traces the delivery, so its position
// among the partition's other events is part of the compared trajectory.
func bumpPing(arg any) {
	cs := arg.(*copyState)
	cs.pings++
	if tr := cs.env.Tracer; tr != nil {
		tr.ProcState(cs.env.K.Now(), cs.track, "ping")
	}
}

// pinger sends a timed ping to the next copy between plan-driven waits.
// The ping delay never drops below the declared lookahead of 1.
type pinger struct {
	dst     *copyState
	dstPart int
	waits   []sim.Time
	i       int
}

func (p *pinger) Step(a *simtest.ActCtx) {
	if p.i > 0 {
		a.Kernel().Send(p.dstPart, 1+sim.Time(p.i%3), bumpPing, p.dst)
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
// different copies coincide and the barrier's tie-breaking between
// partitions is exercised (with continuous draws, cross-partition ties
// almost never happen).
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

// buildParModel lays the spec's copies out across the given per-copy
// rosters (all the same one for a serial run) and wires the ping ring.
func buildParModel(spec parModelSpec, envFor func(g int) *simtest.Env, partOf func(g int) int) []*copyState {
	states := make([]*copyState, spec.copies)
	for g := 0; g < spec.copies; g++ {
		states[g] = buildCopy(envFor(g), g, spec.capacity, spec.plans[g])
	}
	for g := 0; g < spec.copies; g++ {
		dst := (g + 1) % spec.copies
		envFor(g).Spawn(fmt.Sprintf("g%d/ping", g), &pinger{
			dst: states[dst], dstPart: partOf(dst), waits: spec.pings[g],
		})
	}
	return states
}

// parRunResult is everything a run exposes for the byte-identity check.
type parRunResult struct {
	traces [][]traceEvent // per partition (one entry for the serial run)
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
	states := buildParModel(spec, func(int) *simtest.Env { return env }, func(int) int { return 0 })
	now, err := env.RunUntilIdle()
	res := parRunResult{traces: [][]traceEvent{rec.events}, now: now, seq: sim.KernelSeq(k)}
	res.collect(states)
	return res, err
}

func runParModelPartitioned(spec parModelSpec, parts, workers int, assign func(g int) int) (parRunResult, error) {
	pk := sim.NewParKernel(parts, workers, 1)
	envs := shardEnvs(pk)
	recs := make([]*recTracer, parts)
	for i := 0; i < parts; i++ {
		recs[i] = &recTracer{}
		envs[i].Tracer = recs[i]
	}
	states := buildParModel(spec, func(g int) *simtest.Env { return envs[assign(g)] }, assign)
	now, err := pk.RunUntilIdle()
	for _, env := range envs {
		env.Finish()
	}
	// Shards draw setup and between-window seqs from the shared counter
	// (including the single-partition case, which bypasses the window
	// machinery entirely), so the ParKernel's counter is the run's final
	// schedule counter.
	res := parRunResult{now: now, seq: sim.ParKernelSeq(pk)}
	for _, r := range recs {
		res.traces = append(res.traces, r.events)
	}
	res.collect(states)
	return res, err
}

// shardEnvs gives each shard of pk an activity roster.
func shardEnvs(pk *sim.ParKernel) []*simtest.Env {
	envs := make([]*simtest.Env, pk.Parts())
	for i := range envs {
		envs[i] = simtest.New(pk.Part(i))
	}
	return envs
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

// filterTrace restricts a serial trace to the copies a partition owns.
func filterTrace(events []traceEvent, assign func(g int) int, part int) []traceEvent {
	out := []traceEvent{}
	for _, e := range events {
		if assign(copyOfTrack(e.track)) == part {
			out = append(out, e)
		}
	}
	return out
}

// parAssignments is the partition-assignment corpus for model copies:
// contiguous blocks and strided round-robin.
func parAssignments(copies, parts int) map[string]func(g int) int {
	return map[string]func(g int) int{
		"contig":  func(g int) int { return g * parts / copies },
		"strided": func(g int) int { return g % parts },
	}
}

// checkParEquivalence runs spec partitioned and compares it with the
// serial run want: per-partition traces equal to the serial trace
// restricted to each partition's copies, identical grant, drain and ping
// counts, identical final time, and an identical final value of the
// schedule counter (the sharpest witness that the barrier's replay
// renumbering reproduced every serial sequence number).
func checkParEquivalence(t *testing.T, spec parModelSpec, want parRunResult, parts, workers int, assign func(g int) int) {
	t.Helper()
	got, err := runParModelPartitioned(spec, parts, workers, assign)
	if err != nil {
		t.Fatal(err)
	}
	if got.now != want.now {
		t.Fatalf("final time %g, serial %g", got.now, want.now)
	}
	if got.seq != want.seq {
		t.Fatalf("final schedule counter %d, serial %d", got.seq, want.seq)
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
			t.Fatalf("partition %d trace diverges from serial restriction (%d vs %d events)",
				p, len(got.traces[p]), len(ref))
		}
	}
}

// TestParKernelTraceEquivalence: the replicated model, wired into a
// cross-partition ping ring, produces the serial kernel's exact
// trajectory (see checkParEquivalence) for every tested partition count,
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
// seed (which also sizes each copy), the number of copies, the partition
// and worker counts, whether times snap to a whole-unit grid, and an
// arbitrary copy-to-partition assignment (copy g goes to partition
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

// TestParKernelAdvanceIncremental: driving the partitioned run through
// repeated Advance windows (with an explicit Close) reaches the same
// state as one big Advance and as the serial kernel.
func TestParKernelAdvanceIncremental(t *testing.T) {
	spec := makeParModel(11, 6, 3, 5, 8)
	assign := func(g int) int { return g % 3 }

	run := func(steps []sim.Time) (int, sim.Time) {
		pk := sim.NewParKernel(3, 3, 1)
		envs := shardEnvs(pk)
		states := buildParModel(spec, func(g int) *simtest.Env { return envs[assign(g)] }, assign)
		for _, until := range steps {
			if err := pk.Advance(until); err != nil {
				t.Fatal(err)
			}
			if pk.Now() != until {
				t.Fatalf("Now = %g after Advance(%g)", pk.Now(), until)
			}
		}
		pk.Close()
		total := 0
		for _, cs := range states {
			total += cs.pings
		}
		return total, pk.Now()
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

// TestParKernelInfiniteLookahead: partitions that never communicate may
// declare an infinite lookahead — the run collapses into one window and
// still matches the serial kernel exactly.
func TestParKernelInfiniteLookahead(t *testing.T) {
	spec := makeParModel(21, 6, 4, 6, 0)
	spec.pings = make([][]sim.Time, spec.copies) // no cross traffic at all

	senv := simtest.New(sim.NewKernel())
	serialStates := make([]*copyState, spec.copies)
	for g := 0; g < spec.copies; g++ {
		serialStates[g] = buildCopy(senv, g, spec.capacity, spec.plans[g])
	}
	wantNow, err := senv.RunUntilIdle()
	if err != nil {
		t.Fatal(err)
	}

	pk := sim.NewParKernel(4, 4, math.Inf(1))
	envs := shardEnvs(pk)
	assign := func(g int) int { return g % 4 }
	states := make([]*copyState, spec.copies)
	for g := 0; g < spec.copies; g++ {
		states[g] = buildCopy(envs[assign(g)], g, spec.capacity, spec.plans[g])
	}
	gotNow, err := pk.RunUntilIdle()
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

// TestParKernelSendLookaheadViolation: a cross-partition Send below the
// declared lookahead is a model bug; it surfaces as the run's error, not
// a crash, and names both partitions.
func TestParKernelSendLookaheadViolation(t *testing.T) {
	pk := sim.NewParKernel(2, 2, 5)
	k1 := pk.Part(1)
	k1.Schedule(1, func() {
		k1.Send(0, 2, func(any) {}, nil) // delay 2 < lookahead 5
	})
	_, err := pk.RunUntilIdle()
	if err == nil || !strings.Contains(err.Error(), "below declared lookahead") {
		t.Fatalf("err = %v, want lookahead violation", err)
	}
}

// TestParKernelSendAt: SendAt lands at exactly the absolute time it is
// given, on its own shard, across shards and on the serial kernel, where
// now plus the difference would round elsewhere; a cross-shard SendAt
// that lands before now + lookahead is the run's error.
func TestParKernelSendAt(t *testing.T) {
	const from, at = 0.2, 0.9 // 0.2 + (0.9-0.2) != 0.9 in float64
	if f, a := sim.Time(from), sim.Time(at); f+(a-f) == a {
		t.Fatal("the times no longer round apart")
	}
	for _, pk := range []*sim.ParKernel{sim.NewParKernel(1, 1, 0), sim.NewParKernel(2, 2, 0.5)} {
		// One slot per destination, each written only on its own shard.
		var got [2]sim.Time
		land := func(k *sim.Kernel, slot *sim.Time) func(any) {
			return func(any) { *slot = k.Now() }
		}
		k0, kn := pk.Part(0), pk.Part(pk.Parts()-1)
		k0.Schedule(from, func() {
			k0.SendAt(0, at, land(k0, &got[0]), nil)
			k0.SendAt(pk.Parts()-1, at, land(kn, &got[1]), nil)
		})
		if err := pk.Run(2); err != nil {
			t.Fatal(err)
		}
		if got[0] != at || got[1] != at {
			t.Errorf("%d shards: landed at %v, want %v twice", pk.Parts(), got, at)
		}
	}
	pk := sim.NewParKernel(2, 2, 5)
	k1 := pk.Part(1)
	k1.Schedule(1, func() { k1.SendAt(0, 5.5, func(any) {}, nil) }) // 4.5 < lookahead 5
	if _, err := pk.RunUntilIdle(); err == nil || !strings.Contains(err.Error(), "undercuts the declared lookahead") {
		t.Fatalf("err = %v, want lookahead violation", err)
	}
}

// TestParKernelDeadlockParity: a starved activity on one shard is
// reported as a deadlock exactly as on the serial kernel.
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
	pk := sim.NewParKernel(3, 2, 1)
	envs := shardEnvs(pk)
	build(envs[1])
	if _, err := pk.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, env := range envs {
		if err := env.Deadlock(); (i == 1) != errors.Is(err, simtest.ErrDeadlock) {
			t.Fatalf("shard %d: err = %v, want ErrDeadlock on shard 1 only", i, err)
		}
	}
}

// TestParKernelSetupSend: cross-partition Sends made while the run is
// single-threaded (model setup, between Advance windows) deliver
// directly with exact sequence numbers.
func TestParKernelSetupSend(t *testing.T) {
	pk := sim.NewParKernel(2, 2, 1)
	var got []string
	pk.Part(0).Send(1, 3, func(arg any) { got = append(got, arg.(string)) }, "setup")
	if err := pk.Advance(10); err != nil {
		t.Fatal(err)
	}
	pk.Part(1).Send(0, 2, func(arg any) { got = append(got, arg.(string)) }, "between")
	if err := pk.Advance(20); err != nil {
		t.Fatal(err)
	}
	pk.Close()
	if len(got) != 2 || got[0] != "setup" || got[1] != "between" {
		t.Fatalf("deliveries = %v", got)
	}
}

// tickShards schedules a self-rescheduling tick on every shard of pk,
// one per time unit up to last, each also sending a ping to the next
// shard, and returns the per-shard tick counts. When stopAt > 0, shard 1
// stops its kernel at that time.
func tickShards(pk *sim.ParKernel, last, stopAt sim.Time) []int {
	ticks := make([]int, pk.Parts())
	for i := 0; i < pk.Parts(); i++ {
		k := pk.Part(i)
		var tick func()
		tick = func() {
			ticks[i]++
			if i == 1 && k.Now() == stopAt {
				k.Stop()
				return
			}
			k.Send((i+1)%pk.Parts(), pk.Lookahead(), func(any) {}, nil)
			if k.Now() < last {
				k.Schedule(1, tick)
			}
		}
		k.Schedule(1, tick)
	}
	return ticks
}

// TestParKernelLeavesNoGoroutines: Run and RunUntilIdle stop the
// workers on completion, and Close stops them after Advance, so the
// goroutine count returns to where it was.
func TestParKernelLeavesNoGoroutines(t *testing.T) {
	drives := []struct {
		name  string
		drive func(pk *sim.ParKernel) error
	}{
		{"Run", func(pk *sim.ParKernel) error { return pk.Run(30) }},
		{"RunUntilIdle", func(pk *sim.ParKernel) error {
			_, err := pk.RunUntilIdle()
			return err
		}},
		{"Advance+Close", func(pk *sim.ParKernel) error {
			defer pk.Close()
			if err := pk.Advance(10); err != nil {
				return err
			}
			return pk.Advance(30)
		}},
	}
	for _, d := range drives {
		name, drive := d.name, d.drive
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			pk := sim.NewParKernel(3, 3, 1)
			tickShards(pk, 20, 0)
			if err := drive(pk); err != nil {
				t.Fatal(err)
			}
			testutil.WaitGoroutines(t, base, name)
		})
	}
}

// TestParKernelStopIsFinal: a Stop from model code halts the run at the
// window's barrier, and every later Advance or RunUntilIdle dispatches
// nothing and returns ErrStopped.
func TestParKernelStopIsFinal(t *testing.T) {
	base := runtime.NumGoroutine()
	pk := sim.NewParKernel(3, 3, 1)
	ticks := tickShards(pk, 100, 5)
	if err := pk.Advance(50); err != nil {
		t.Fatalf("the Advance that stops: %v", err)
	}
	now, before := pk.Now(), fmt.Sprint(ticks)
	if now >= 50 {
		t.Fatalf("Now = %g after a Stop at 5, want the stop's window", now)
	}
	if err := pk.Advance(80); !errors.Is(err, sim.ErrStopped) {
		t.Fatalf("Advance after Stop: err = %v, want ErrStopped", err)
	}
	if _, err := pk.RunUntilIdle(); !errors.Is(err, sim.ErrStopped) {
		t.Fatalf("RunUntilIdle after Stop: err = %v, want ErrStopped", err)
	}
	if pk.Now() != now || fmt.Sprint(ticks) != before {
		t.Fatalf("a stopped kernel moved: Now %g -> %g, ticks %s -> %v", now, pk.Now(), before, ticks)
	}
	testutil.WaitGoroutines(t, base, "after RunUntilIdle on the stopped kernel")
}
