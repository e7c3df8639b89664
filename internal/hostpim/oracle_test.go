package hostpim

// The oracle: the queuing model on the DES kernel, the formulation
// Simulate's closed-form station loop replaced. Every station is a
// run-to-completion activity (internal/sim/simtest) that acquires its own
// capacity-1 processor and memory resource and waits out each piece's
// service time; the HWP phase, the LWP array and the control run each on
// a kernel of their own. Busy times are
// the resources' utilization areas and phase ends are kernel clocks, so
// the oracle shares with stationSum only the draws and each chunk's
// cycle counts. Simulate must match it bit for bit, traced timeline
// included.

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// stationWork drives a batch of operations through one two-resource
// station (CPU then memory) as a run-to-completion state machine — the
// activity form of a blocking work loop.
type stationWork struct {
	p         Params
	st        *rng.Stream
	pmiss     float64 // HWP miss rate (hwp mode only)
	hwp       bool
	remaining int64
	chunk     int64
	cpu, mem  *simtest.Resource

	state     int
	cpuCycles float64
	memCycles float64
}

// stationWork states: which step of the current chunk runs next.
const (
	swNextChunk = iota // draw the next chunk, acquire the CPU
	swHoldCPU          // CPU granted: spend the compute cycles
	swCPUDone          // compute done: release, acquire memory if needed
	swHoldMem          // memory granted: spend the access cycles
	swMemDone          // access done: release, next chunk
)

func newStationWork(p Params, st *rng.Stream, hwp bool, pmiss, ops float64, chunk int, cpu, mem *simtest.Resource) stationWork {
	return stationWork{p: p, st: st, pmiss: pmiss, hwp: hwp,
		remaining: int64(math.Round(ops)), chunk: int64(chunk), cpu: cpu, mem: mem}
}

// run advances the machine until it must wait (returns false; call again
// on the next resumption) or all operations are done (returns true).
func (w *stationWork) run(a *simtest.ActCtx) bool {
	for {
		switch w.state {
		case swNextChunk:
			if w.remaining <= 0 {
				return true
			}
			n := w.chunk
			if n > w.remaining {
				n = w.remaining
			}
			w.remaining -= n
			nLS := w.st.Binomial(int(n), w.p.MixLS)
			if w.hwp {
				nMiss := w.st.Binomial(nLS, w.pmiss)
				w.cpuCycles = float64(n) + float64(nLS)*(w.p.TCH-1)
				w.memCycles = float64(nMiss) * w.p.TMH
			} else {
				w.cpuCycles = float64(n-int64(nLS)) * w.p.TLCycle
				w.memCycles = float64(nLS) * w.p.TML
			}
			w.state = swHoldCPU
			if !w.cpu.Acquire(a, 1) {
				return false
			}
		case swHoldCPU:
			w.state = swCPUDone
			a.Wait(w.cpuCycles)
			return false
		case swCPUDone:
			w.cpu.Release(1)
			if w.memCycles > 0 {
				w.state = swHoldMem
				if !w.mem.Acquire(a, 1) {
					return false
				}
			} else {
				w.state = swNextChunk
			}
		case swHoldMem:
			w.state = swMemDone
			a.Wait(w.memCycles)
			return false
		case swMemDone:
			w.mem.Release(1)
			w.state = swNextChunk
		}
	}
}

// segments runs station segments back to back in one activity (the
// control run's one or two), calling done at the end.
type segments struct {
	seg  []stationWork
	cur  int
	done func(a *simtest.ActCtx)
}

func (s *segments) Step(a *simtest.ActCtx) {
	for s.cur < len(s.seg) {
		if !s.seg[s.cur].run(a) {
			return
		}
		s.cur++
	}
	if s.done != nil {
		s.done(a)
	}
	a.Exit()
}

// oracleSimulate is Simulate on the kernel. opt.Tracer is attached to the
// HWP phase and the LWP array.
func oracleSimulate(p Params, opt SimOptions) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	chunk := opt.ChunkOps
	if chunk <= 0 {
		chunk = int(math.Max(1, p.W/10000))
	}
	wh := (1 - p.PctWL) * p.W
	wl := p.PctWL * p.W
	res := Result{NodeTimes: make([]float64, p.N)}

	// The HWP phase.
	hk := sim.NewKernel()
	henv := simtest.New(hk)
	henv.Tracer = opt.Tracer
	hwpCPU := simtest.NewResource(hk, 1)
	hwpMem := simtest.NewResource(hk, 1)
	henv.Spawn("hwp-phase", &segments{
		seg: []stationWork{newStationWork(p, rng.NewWithStream(opt.Seed, 1), true, p.Pmiss, wh, chunk, hwpCPU, hwpMem)},
	})
	hwpEnd, err := henv.RunUntilIdle()
	if err != nil {
		return Result{}, err
	}
	res.TimeHWPPhase = hwpEnd

	// The LWP array, from the HWP phase's end (or from 0 under Overlap).
	start := hwpEnd
	if p.Overlap {
		start = 0
	}
	lk := sim.NewKernel()
	lenv := simtest.New(lk)
	lenv.Tracer = opt.Tracer
	if err := lk.Run(start); err != nil {
		return Result{}, err
	}
	lwpCPU := make([]*simtest.Resource, p.N)
	lwpMem := make([]*simtest.Resource, p.N)
	for i := range lwpCPU {
		num := strconv.Itoa(i)
		lwpCPU[i] = simtest.NewResource(lk, 1)
		lwpMem[i] = simtest.NewResource(lk, 1)
		lenv.Spawn("lwp-"+num, &segments{
			seg: []stationWork{newStationWork(p, rng.NewWithStream(opt.Seed, 100+uint64(i)), false, 0,
				wl/float64(p.N), chunk, lwpCPU[i], lwpMem[i])},
			done: func(a *simtest.ActCtx) { res.NodeTimes[i] = a.Now() - start },
		})
	}
	lwpEnd, err := lk.RunUntilIdle()
	if err != nil {
		return Result{}, err
	}
	if err := lenv.Deadlock(); err != nil {
		return Result{}, err
	}
	res.TimeLWPPhase = lwpEnd - start
	res.Total = math.Max(hwpEnd, lwpEnd)

	res.HWPUtil = hwpCPU.Util.Area(res.Total) + hwpMem.Util.Area(res.Total)
	if res.Total > 0 {
		res.HWPUtil /= res.Total
	}
	var lwpBusy float64
	for i := range lwpCPU {
		lwpBusy += lwpCPU[i].Util.Area(res.Total) + lwpMem[i].Util.Area(res.Total)
	}
	if res.Total > 0 {
		res.LWPUtil = lwpBusy / (res.Total * float64(p.N))
	}

	// The control system: the HWP alone, its segments in one activity.
	kc := sim.NewKernel()
	cenv := simtest.New(kc)
	cs := rng.NewWithStream(opt.Seed, 2)
	cCPU := simtest.NewResource(kc, 1)
	cMem := simtest.NewResource(kc, 1)
	var seg []stationWork
	switch p.Control {
	case ControlFixedMiss:
		seg = []stationWork{newStationWork(p, cs, true, p.Pmiss, p.W, chunk, cCPU, cMem)}
	case ControlLocalityAware:
		seg = []stationWork{
			newStationWork(p, cs, true, p.Pmiss, wh, chunk, cCPU, cMem),
			newStationWork(p, cs, true, p.PmissLow, wl, chunk, cCPU, cMem),
		}
	}
	cenv.Spawn("control-system", &segments{seg: seg})
	if res.ControlTime, err = cenv.RunUntilIdle(); err != nil {
		return Result{}, err
	}
	if res.Total > 0 {
		res.Gain = res.ControlTime / res.Total
	}
	res.Relative = res.Total / (p.W * p.HWPOpCycles(p.Pmiss))
	return res, nil
}

// genPoint draws one model point and its options: small work so the
// kernel oracle stays cheap, the edges of PctWL and ChunkOps often.
func genPoint(st *rng.Stream) (Params, SimOptions) {
	p := DefaultParams()
	p.W = float64(1 + st.Intn(20000))
	switch st.Intn(4) {
	case 0:
		p.PctWL = 0
	case 1:
		p.PctWL = 1
	default:
		p.PctWL = st.Float64()
	}
	p.N = 1 + st.Intn(24)
	if st.Intn(8) == 0 {
		p.N = 64 + st.Intn(200)
	}
	p.Pmiss = st.Float64()
	p.MixLS = st.Float64()
	if st.Intn(2) == 0 {
		// Non-integral service times, so float rounding differences show.
		p.TLCycle = 1 + 9*st.Float64()
		p.TCH = 1 + 3*st.Float64()
		p.TMH = 10 + 200*st.Float64()
		p.TML = 5 + 50*st.Float64()
	}
	p.Control = ControlPolicy(st.Intn(2))
	p.Overlap = st.Intn(2) == 1
	opt := SimOptions{Seed: st.Uint64()}
	switch st.Intn(3) {
	case 0: // the default chunk
	case 1:
		opt.ChunkOps = 1 + st.Intn(8)
	default:
		opt.ChunkOps = 1 + st.Intn(5000)
	}
	return p, opt
}

// TestSimulateMatchesKernelOracle holds Simulate to the kernel
// formulation, every Result field bit for bit, over generated points.
func TestSimulateMatchesKernelOracle(t *testing.T) {
	cases := 300
	if testing.Short() {
		cases = 60
	}
	gen := rng.NewWithStream(21, 7)
	for c := 0; c < cases; c++ {
		p, opt := genPoint(gen)
		got, err := Simulate(p, opt)
		if err != nil {
			t.Fatalf("case %d %+v: %v", c, p, err)
		}
		want, err := oracleSimulate(p, opt)
		if err != nil {
			t.Fatalf("case %d %+v: oracle: %v", c, p, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%+v, %+v): Simulate diverged from the kernel oracle:\n got  %+v\n want %+v",
				c, p, opt, got, want)
		}
	}
}

// trackTracer records each track's (t, state) sequence.
type trackTracer map[string][]string

func (tt trackTracer) ProcState(t float64, name, state string) {
	tt[name] = append(tt[name], fmt.Sprintf("%x %s", math.Float64bits(t), state))
}

// TestSimulateTraceMatchesKernelOracle holds every traced track — the HWP
// phase and each LWP thread — to the kernel's sequence of state changes,
// time for time. Only the interleaving across tracks may differ. Chunks
// of 4 ops often draw no miss, so HWP chunks without a memory piece are
// covered too.
func TestSimulateTraceMatchesKernelOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2004, 77} {
		for _, n := range []int{1, 4, 13} {
			for _, overlap := range []bool{false, true} {
				for _, chunk := range []int{700, 4} {
					p := DefaultParams()
					p.W, p.PctWL, p.N, p.Overlap = 6000, 0.5, n, overlap
					got, want := trackTracer{}, trackTracer{}
					if _, err := Simulate(p, SimOptions{Seed: seed, ChunkOps: chunk, Tracer: got}); err != nil {
						t.Fatal(err)
					}
					if _, err := oracleSimulate(p, SimOptions{Seed: seed, ChunkOps: chunk, Tracer: want}); err != nil {
						t.Fatal(err)
					}
					if len(got) != n+1 || len(want) != n+1 {
						t.Errorf("seed %d N %d overlap %v chunk %d: %d tracks (oracle %d), want %d",
							seed, n, overlap, chunk, len(got), len(want), n+1)
					}
					for track, w := range want {
						g := got[track]
						for i := range max(len(g), len(w)) {
							if i >= len(g) || i >= len(w) || g[i] != w[i] {
								t.Errorf("seed %d N %d overlap %v chunk %d: track %s diverges at event %d of %d (oracle %d)",
									seed, n, overlap, chunk, track, i, len(g), len(w))
								break
							}
						}
					}
				}
			}
		}
	}
}

// TestSimulateAllocations pins Simulate at one allocation — the
// NodeTimes slice — whatever the node count.
func TestSimulateAllocations(t *testing.T) {
	for _, n := range []int{1, 16, 1024} {
		p := DefaultParams()
		p.W, p.PctWL, p.N = 1e5, 0.5, n
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Simulate(p, SimOptions{Seed: 3}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("N = %d: Simulate made %v allocations, want <= 1", n, allocs)
		}
	}
}
