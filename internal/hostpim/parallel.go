package hostpim

// The test system's driver. The LWP nodes are sharded contiguously over
// a sim.ParKernel of max(1, min(RunParallel, N)) shards and the HWP
// station lives on shard 0; one shard is the plain serial kernel. The
// nodes never interact — each owns its processor, memory bank, and RNG
// stream — so the partitions declare an infinite lookahead and each phase
// drains in a single window. The Fig. 4 flow is driven from plain Go
// between AdvanceUntilIdle barriers: run the HWP phase to completion,
// spawn the LWP array at the common barrier time, run it to completion
// (Overlap mode spawns both at t = 0 instead).
//
// Every per-node quantity — stream draws, event timeline, completion
// time, utilization area — is independent of the shard assignment, so
// the Result is bit-for-bit identical for every RunParallel value; the
// invariance test pins it.

import (
	"fmt"
	"strconv"

	"repro/internal/rng"
	"repro/internal/sim"
)

// phaseWork drives one stationWork to completion as a free-standing
// activity, invoking the hook at completion before exiting.
type phaseWork struct {
	w    stationWork
	done func(a *sim.ActCtx)
}

// Step advances the station until it parks or finishes.
func (pw *phaseWork) Step(a *sim.ActCtx) {
	if !pw.w.run(a) {
		return
	}
	if pw.done != nil {
		pw.done(a)
	}
	a.Exit()
}

// parLWPNode is one LWP thread of the partitioned array: the station
// machine plus the completion-time record. No join object — the phase
// barrier (AdvanceUntilIdle) is the join.
type parLWPNode struct {
	w     stationWork
	res   *Result
	idx   int
	start sim.Time
}

// Step advances one LWP thread; at completion it records the node time.
func (n *parLWPNode) Step(a *sim.ActCtx) {
	if !n.w.run(a) {
		return
	}
	// Distinct NodeTimes elements: shards never write the same index.
	n.res.NodeTimes[n.idx] = a.Now() - n.start
	a.Exit()
}

// simulateTestPar runs the test system. A Tracer is attached to the
// single shard; it is refused on more than one.
func simulateTestPar(p Params, opt SimOptions, chunk int) (Result, error) {
	parts := max(1, min(opt.RunParallel, p.N))
	if opt.Tracer != nil && parts > 1 {
		return Result{}, fmt.Errorf("hostpim: Tracer requires a single shard (RunParallel <= 1)")
	}
	pk := sim.NewParKernel(parts, opt.RunParallel, sim.InfLookahead())
	defer pk.Close()
	pk.Part(0).Tracer = opt.Tracer
	partOf := func(i int) int { return i * parts / p.N }

	hwpStream := rng.NewWithStream(opt.Seed, 1)
	res := Result{}

	k0 := pk.Part(0)
	hwpCPU := sim.NewResource(k0, "hwp-cpu", 1, sim.FIFO)
	hwpMem := sim.NewResource(k0, "hwp-mem", 1, sim.FIFO)
	lwpCPU := make([]*sim.Resource, p.N)
	lwpMem := make([]*sim.Resource, p.N)
	lwpStreams := make([]rng.Stream, p.N)
	lwpNames := make([]string, p.N)
	for i := range lwpCPU {
		num := strconv.Itoa(i)
		ki := pk.Part(partOf(i))
		lwpNames[i] = "lwp-" + num
		lwpCPU[i] = sim.NewResource(ki, "lwp-cpu-"+num, 1, sim.FIFO)
		lwpMem[i] = sim.NewResource(ki, "lwp-mem-"+num, 1, sim.FIFO)
		lwpStreams[i].Reseed(opt.Seed, 100+uint64(i))
	}

	wh := (1 - p.PctWL) * p.W
	wl := p.PctWL * p.W
	res.NodeTimes = make([]float64, p.N)
	nodes := make([]parLWPNode, p.N)

	startLWPArray := func(now sim.Time) {
		perNode := wl / float64(p.N)
		for i := 0; i < p.N; i++ {
			n := &nodes[i]
			n.res, n.idx, n.start = &res, i, now
			n.w.initLWP(p, &lwpStreams[i], perNode, chunk, lwpCPU[i], lwpMem[i])
			pk.Part(partOf(i)).SpawnActivity(lwpNames[i], n)
		}
	}

	hwp := &phaseWork{done: func(a *sim.ActCtx) { res.TimeHWPPhase = a.Now() }}
	hwp.w.init(p, hwpStream, p.Pmiss, wh, chunk, hwpCPU, hwpMem)
	k0.SpawnActivity("hwp-phase", hwp)
	if p.Overlap {
		// Extension mode: HWP and LWP array execute concurrently.
		startLWPArray(0)
		if _, err := pk.AdvanceUntilIdle(); err != nil {
			return Result{}, err
		}
		for _, nt := range res.NodeTimes {
			if nt > res.TimeLWPPhase {
				res.TimeLWPPhase = nt
			}
		}
	} else {
		// Phase 1: the HWP runs alone (shard 0 is the only busy shard).
		hwpEnd, err := pk.AdvanceUntilIdle()
		if err != nil {
			return Result{}, err
		}
		// Phase 2: the LWP array, from the barrier's common clock.
		startLWPArray(hwpEnd)
		end, err := pk.AdvanceUntilIdle()
		if err != nil {
			return Result{}, err
		}
		res.TimeLWPPhase = end - hwpEnd
	}

	res.Total = pk.Now()
	res.HWPUtil = hwpCPU.Util.Area(res.Total) + hwpMem.Util.Area(res.Total)
	if res.Total > 0 {
		res.HWPUtil /= res.Total
	}
	var lwpBusy float64
	for i := range lwpCPU {
		lwpBusy += lwpCPU[i].Util.Area(res.Total) + lwpMem[i].Util.Area(res.Total)
	}
	if res.Total > 0 && p.N > 0 {
		res.LWPUtil = lwpBusy / (res.Total * float64(p.N))
	}
	return res, nil
}
