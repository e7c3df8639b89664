package hostpim

// The oracle: the queuing model on the DES kernel, the formulation
// Simulate's closed-form stations replaced. Every station is a
// run-to-completion activity (internal/sim/simtest) that runs its
// operations chunk by chunk: it draws each chunk's load/store and miss
// counts, acquires its own capacity-1 processor and memory resource and
// waits out each piece's service time; the HWP phase, the LWP array and
// the control run each on a kernel of their own. Busy times are the
// resources' utilization areas and phase ends are kernel clocks, so the
// oracle shares with stationSum only the draws and their cycle counts.
// With chunks of a whole station it makes stationSum's draws from the
// same streams in the same order, and Simulate must match it bit for bit,
// traced timeline included. With smaller chunks a station's counts are
// sums of chunk binomials, which are the same binomials in distribution,
// and Simulate must match it by a two-sample test.

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/testutil"
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

// wholeStation is an oracle chunk no station's op count exceeds.
const wholeStation = math.MaxInt

// oracleSimulate is Simulate on the kernel, each station drawing its
// operations chunk (> 0) at a time. opt.Tracer is attached to the HWP
// phase and the LWP array.
func oracleSimulate(p Params, opt SimOptions, chunk int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
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
// kernel oracle stays cheap, the edges of PctWL often.
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
	return p, SimOptions{Seed: st.Uint64()}
}

// TestSimulateMatchesKernelOracle holds Simulate to the kernel
// formulation with whole-station chunks, every Result field bit for bit,
// over generated points.
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
		want, err := oracleSimulate(p, opt, wholeStation)
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
// phase and each LWP thread — to the kernel's sequence of state changes
// with whole-station chunks, time for time. Only the interleaving across
// tracks may differ. At W = 8 some stations draw no miss, so an HWP
// station without a memory piece is covered, and some LWP threads get no
// operations at all.
func TestSimulateTraceMatchesKernelOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2004, 77} {
		for _, n := range []int{1, 4, 13} {
			for _, overlap := range []bool{false, true} {
				for _, w := range []float64{6000, 8} {
					p := DefaultParams()
					p.W, p.PctWL, p.N, p.Overlap = w, 0.5, n, overlap
					got, want := trackTracer{}, trackTracer{}
					if _, err := Simulate(p, SimOptions{Seed: seed, Tracer: got}); err != nil {
						t.Fatal(err)
					}
					if _, err := oracleSimulate(p, SimOptions{Seed: seed, Tracer: want}, wholeStation); err != nil {
						t.Fatal(err)
					}
					if len(got) != n+1 || len(want) != n+1 {
						t.Errorf("seed %d N %d overlap %v W %g: %d tracks (oracle %d), want %d",
							seed, n, overlap, w, len(got), len(want), n+1)
					}
					for track, wt := range want {
						g := got[track]
						for i := range max(len(g), len(wt)) {
							if i >= len(g) || i >= len(wt) || g[i] != wt[i] {
								t.Errorf("seed %d N %d overlap %v W %g: track %s diverges at event %d of %d (oracle %d)",
									seed, n, overlap, w, track, i, len(g), len(wt))
								break
							}
						}
					}
				}
			}
		}
	}
}

// TestSimulateMatchesChunkedOracleInDistribution holds Simulate's one
// draw per count to the oracle's chunk-by-chunk draws, which a sum of
// chunk binomials makes equal in distribution. Each case runs both over
// disjoint seeds and compares Total, TimeHWPPhase, ControlTime and
// NodeTimes[0] by a two-sample chi-square test. The bound was fixed
// before the first run: the chi-square quantile at 1 − 1e-4 for the
// test's degrees of freedom. The cases cover a chunk of one op, odd
// chunks with non-integral service times under fixed-miss control and
// Overlap, and chunks large enough that the draws take BTPE.
func TestSimulateMatchesChunkedOracleInDistribution(t *testing.T) {
	runs := 600
	if testing.Short() {
		runs = 150
	}
	type metric struct {
		name string
		get  func(r Result) float64
	}
	metrics := []metric{
		{"Total", func(r Result) float64 { return r.Total }},
		{"TimeHWPPhase", func(r Result) float64 { return r.TimeHWPPhase }},
		{"ControlTime", func(r Result) float64 { return r.ControlTime }},
		{"NodeTimes[0]", func(r Result) float64 { return r.NodeTimes[0] }},
	}
	irregular := DefaultParams()
	irregular.TLCycle, irregular.TCH, irregular.TMH, irregular.TML = 3.7, 2.5, 71.3, 17.9
	irregular.Pmiss, irregular.MixLS, irregular.Control, irregular.Overlap = 0.35, 0.6, ControlFixedMiss, true
	cases := []struct {
		base  Params
		w     float64
		pct   float64
		n     int
		chunk int
	}{
		{DefaultParams(), 1500, 0.5, 4, 1},
		{irregular, 8000, 0.3, 3, 7},
		{DefaultParams(), 30000, 0.8, 2, 5000},
		{irregular, 200000, 0.6, 5, 4999},
	}
	for ci, c := range cases {
		p := c.base
		p.W, p.PctWL, p.N = c.w, c.pct, c.n
		one := make([][]float64, len(metrics))
		chunked := make([][]float64, len(metrics))
		for r := 0; r < runs; r++ {
			a, err := Simulate(p, SimOptions{Seed: uint64(r)})
			if err != nil {
				t.Fatal(err)
			}
			b, err := oracleSimulate(p, SimOptions{Seed: uint64(runs + r)}, c.chunk)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range metrics {
				one[i] = append(one[i], m.get(a))
				chunked[i] = append(chunked[i], m.get(b))
			}
		}
		for i, m := range metrics {
			chi2, df := chiSquareTwoSample(one[i], chunked[i], 20)
			if df < 5 {
				t.Fatalf("case %d %s: only %d degrees of freedom; the case does not spread the metric", ci, m.name, df)
			}
			bound := testutil.ChiSquareBound(float64(df))
			if chi2 > bound {
				t.Errorf("case %d (W %g, chunk %d) %s: chi-square %.1f on %d df exceeds %.1f",
					ci, c.w, c.chunk, m.name, chi2, df, bound)
			}
			t.Logf("case %d (W %g, chunk %d) %s: chi-square %.1f on %d df, bound %.1f", ci, c.w, c.chunk, m.name, chi2, df, bound)
		}
	}
}

// chiSquareTwoSample returns the two-sample chi-square statistic of a
// and b, the test of whether they come from one distribution, and its
// degrees of freedom. The bins are cut after up to bins−1 quantiles of
// the pooled sample and merged until each holds at least 20 pooled
// values. The metrics lie on a lattice of the drawn counts, and the two
// formulations sum a lattice point's cycles in different orders, so its
// copies can differ in the last bits: each cut lies midway to the next
// value more than a relative 1e-9 above the quantile, never on a value.
func chiSquareTwoSample(a, b []float64, bins int) (chi2 float64, df int) {
	pooled := append(append([]float64(nil), a...), b...)
	sort.Float64s(pooled)
	// Bin k holds the values in (edges[k−1], edges[k]); the last bin has
	// no upper edge.
	var edges []float64
	for k := 1; k < bins; k++ {
		q := pooled[k*len(pooled)/bins]
		j := sort.SearchFloat64s(pooled, q+1e-9*math.Abs(q))
		for j < len(pooled) && pooled[j] <= q+1e-9*math.Abs(q) {
			j++
		}
		if j == len(pooled) {
			break
		}
		if e := (q + pooled[j]) / 2; len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	ca := make([]float64, len(edges)+1)
	cb := make([]float64, len(edges)+1)
	for _, x := range a {
		ca[sort.SearchFloat64s(edges, x)]++
	}
	for _, x := range b {
		cb[sort.SearchFloat64s(edges, x)]++
	}
	var oa, ob []float64
	var accA, accB float64
	for k := range ca {
		accA += ca[k]
		accB += cb[k]
		if accA+accB >= 20 {
			oa, ob = append(oa, accA), append(ob, accB)
			accA, accB = 0, 0
		}
	}
	if len(oa) == 0 {
		return 0, 0
	}
	oa[len(oa)-1] += accA
	ob[len(ob)-1] += accB
	na, nb := float64(len(a)), float64(len(b))
	for k := range oa {
		tot := oa[k] + ob[k]
		ea := tot * na / (na + nb)
		eb := tot * nb / (na + nb)
		chi2 += (oa[k]-ea)*(oa[k]-ea)/ea + (ob[k]-eb)*(ob[k]-eb)/eb
	}
	return chi2, len(oa) - 1
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
