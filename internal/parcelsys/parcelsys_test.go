package parcelsys

import (
	"math"
	"testing"

	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/stats"
)

// fast returns a parameter point small enough for unit tests.
func fast() Params {
	p := DefaultParams()
	p.Nodes = 8
	p.Horizon = 30000
	return p
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.Nodes = 0 },
		func(p *Params) { p.Parallelism = 0 },
		func(p *Params) { p.RemoteFrac = -0.1 },
		func(p *Params) { p.RemoteFrac = 1.5 },
		func(p *Params) { p.Latency = -1 },
		func(p *Params) { p.MixMem = 0 },
		func(p *Params) { p.MemCycles = 0 },
		func(p *Params) { p.Horizon = 0 },
		func(p *Params) { p.Overhead.CreateCycles = -1 },
		func(p *Params) { p.RemoteFrac = math.NaN() },
		func(p *Params) { p.Latency = math.NaN() },
		func(p *Params) { p.Latency = math.Inf(1) },
		func(p *Params) { p.MixMem = math.NaN() },
		func(p *Params) { p.MemCycles = math.Inf(1) },
		func(p *Params) { p.Horizon = math.NaN() },
		func(p *Params) { p.Horizon = math.Inf(1) },
		func(p *Params) { p.Hotspot = math.NaN() },
		func(p *Params) { p.Overhead.CreateCycles = math.NaN() },
		func(p *Params) { p.Overhead.AssimilateCycles = math.Inf(1) },
		func(p *Params) { p.Overhead.ReplyCycles = math.NaN() },
	}
	for i, mod := range cases {
		p := DefaultParams()
		mod(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := fast()
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Control.Ops != b.Control.Ops || a.Test.Ops != b.Test.Ops {
		t.Errorf("same seed differed: %+v vs %+v", a, b)
	}
	p.Seed = 999
	c, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Test.Ops == c.Test.Ops && a.Control.Ops == c.Control.Ops {
		t.Error("different seeds produced identical op counts (suspicious)")
	}
}

func TestParcelsHideLatencyAtHighLatency(t *testing.T) {
	// The headline Fig. 11 effect: with significant latency and enough
	// parallelism, the split-transaction system does much more work.
	// At L=500, r=0.5 a thread is runnable ~13.5 of every ~263 cycles, so
	// P=32 saturates the processors (32 × 13.5 > 263).
	p := fast()
	p.Latency = 500
	p.Parallelism = 32
	p.RemoteFrac = 0.5
	r, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio < 5 {
		t.Errorf("ratio = %g, expected large latency-hiding win", r.Ratio)
	}
	if r.Test.IdleFrac > 0.2 {
		t.Errorf("test idle = %g, expected near zero with P=32", r.Test.IdleFrac)
	}
	if r.Control.IdleFrac < 0.8 {
		t.Errorf("control idle = %g, expected mostly waiting at L=500", r.Control.IdleFrac)
	}
}

func TestReversedRegionAtLowLatencyLowParallelism(t *testing.T) {
	// "performance advantage is small or in fact reversed... when there is
	// little parallelism and short system latencies": with P=1, L=0 and
	// software parcel overheads, the test system must lose.
	p := fast()
	p.Latency = 0
	p.Parallelism = 1
	p.Overhead = parcel.SoftwareOnly()
	r, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio >= 1 {
		t.Errorf("ratio = %g, expected < 1 (overhead without latency to hide)", r.Ratio)
	}
}

func TestRatioMonotoneInParallelism(t *testing.T) {
	// More parcels per processor never hurts throughput (until saturation).
	p := fast()
	p.Latency = 1000
	p.RemoteFrac = 0.4
	prev := -1.0
	for _, par := range []int{1, 2, 4, 8, 16} {
		p.Parallelism = par
		r, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Ratio < prev*0.95 { // allow small stochastic wobble
			t.Errorf("ratio dropped at P=%d: %g after %g", par, r.Ratio, prev)
		}
		prev = r.Ratio
	}
}

func TestIdleDropsWithParallelism(t *testing.T) {
	// Fig. 12: test-system idle time falls toward zero as parallelism
	// grows, while control idle stays put.
	p := fast()
	p.Latency = 500
	var ctrlIdle []float64
	var testIdle []float64
	for _, par := range []int{1, 4, 16, 64} {
		p.Parallelism = par
		r, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		ctrlIdle = append(ctrlIdle, r.Control.IdleFrac)
		testIdle = append(testIdle, r.Test.IdleFrac)
	}
	if testIdle[len(testIdle)-1] > 0.1 {
		t.Errorf("test idle at P=64 = %g, want ~0", testIdle[len(testIdle)-1])
	}
	if testIdle[0] < testIdle[len(testIdle)-1] {
		t.Errorf("test idle not decreasing: %v", testIdle)
	}
	// Control idle is independent of the test system's parallelism.
	for i := 1; i < len(ctrlIdle); i++ {
		if math.Abs(ctrlIdle[i]-ctrlIdle[0]) > 0.02 {
			t.Errorf("control idle varied with test parallelism: %v", ctrlIdle)
		}
	}
}

func TestControlIdleMatchesAnalytic(t *testing.T) {
	// With mild load (little destination-memory contention) the simulated
	// control idle fraction should track the closed form.
	p := fast()
	p.Latency = 300
	p.RemoteFrac = 0.3
	r, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := ControlIdleFracAnalytic(p)
	if stats.RelErr(r.Control.IdleFrac, want) > 0.1 {
		t.Errorf("control idle = %g, analytic %g", r.Control.IdleFrac, want)
	}
}

func TestZeroRemoteFractionEquivalence(t *testing.T) {
	// With no remote accesses both systems do pure local work; the ratio
	// must be ~1 and both idle fractions ~0.
	p := fast()
	p.RemoteFrac = 0
	p.Parallelism = 1
	r, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Ratio-1) > 0.05 {
		t.Errorf("ratio = %g with no remote traffic", r.Ratio)
	}
	if r.Control.IdleFrac > 0.01 || r.Test.IdleFrac > 0.01 {
		t.Errorf("idle fractions = %g / %g, want ~0",
			r.Control.IdleFrac, r.Test.IdleFrac)
	}
	if r.Control.RemoteAccesses != 0 || r.Test.RemoteAccesses != 0 {
		t.Error("remote accesses recorded with RemoteFrac=0")
	}
}

func TestSingleNodeSystem(t *testing.T) {
	// Fig. 12's 1-node case (which the authors note they ran): no remote
	// traffic is possible, so the two systems are equivalent.
	p := fast()
	p.Nodes = 1
	p.RemoteFrac = 0.5 // ignored: no other node exists
	r, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Ratio-1) > 0.05 {
		t.Errorf("1-node ratio = %g, want ~1", r.Ratio)
	}
}

func TestRatioGrowsWithLatency(t *testing.T) {
	// The latency-hiding advantage grows with the latency being hidden.
	p := fast()
	p.Parallelism = 16
	p.RemoteFrac = 0.4
	prev := 0.0
	for _, l := range []float64{10, 100, 1000} {
		p.Latency = l
		r, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Ratio < prev*0.98 {
			t.Errorf("ratio fell as latency grew: L=%g ratio=%g prev=%g", l, r.Ratio, prev)
		}
		prev = r.Ratio
	}
}

func TestWorkConservedAcrossNodes(t *testing.T) {
	// Per-node idle in the test system should be balanced (uniform random
	// destinations): no node starves while others saturate.
	p := fast()
	p.Latency = 500
	p.Parallelism = 8
	r, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var s stats.Sample
	for _, idle := range r.Test.PerNodeIdle {
		s.Add(idle)
	}
	if s.Max()-s.Min() > 0.3 {
		t.Errorf("test idle imbalance: min=%g max=%g", s.Min(), s.Max())
	}
}

func TestQueueMeanGrowsWithParallelism(t *testing.T) {
	p := fast()
	p.Latency = 100
	p.Parallelism = 1
	r1, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 32
	r32, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if r32.Test.QueueMean <= r1.Test.QueueMean {
		t.Errorf("queue mean did not grow with parallelism: %g vs %g",
			r1.Test.QueueMean, r32.Test.QueueMean)
	}
	if r1.Control.QueueMean != 0 {
		t.Errorf("control reported a parcel queue: %g", r1.Control.QueueMean)
	}
}

func TestTopologyNetwork(t *testing.T) {
	// A hop network calibrated to the flat mean should land near the flat
	// result; an uncalibrated long-haul ring should do worse for the
	// control (more latency) and correspondingly raise the ratio.
	p := fast()
	p.Nodes = 16
	p.Parallelism = 16
	p.RemoteFrac = 0.5
	p.Latency = 500
	flat, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	ring := network.Ring{N: 16}
	perHop := 500 / network.MeanHops(ring)
	p.Net = network.NewHop(ring, perHop, 0)
	topo, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelErr(topo.Ratio, flat.Ratio) > 0.3 {
		t.Errorf("calibrated ring ratio %g far from flat %g", topo.Ratio, flat.Ratio)
	}
}

func TestNetworkNodeCountMismatch(t *testing.T) {
	p := fast()
	p.Net = network.NewFlat(p.Nodes+1, 10)
	if p.Validate() == nil {
		t.Error("mismatched network size accepted")
	}
}

func TestMultithreadedControlNarrowsTheGap(t *testing.T) {
	// Giving the blocking control system the same thread count as the
	// parcel system removes most — but not all — of the parcel advantage:
	// parcels still win on one-way migration vs round trips.
	p := fast()
	p.Nodes = 8
	p.Parallelism = 16
	p.RemoteFrac = 0.5
	p.Latency = 500
	single, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.ControlThreads = 16
	multi, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Ratio >= single.Ratio {
		t.Errorf("multithreaded control did not narrow the gap: %g vs %g",
			multi.Ratio, single.Ratio)
	}
	if multi.Ratio < 0.5 {
		t.Errorf("parcels lost badly to multithreaded blocking: ratio %g", multi.Ratio)
	}
	// The multithreaded control is itself far less idle.
	if multi.Control.IdleFrac >= single.Control.IdleFrac {
		t.Errorf("control idle did not fall with threads: %g vs %g",
			multi.Control.IdleFrac, single.Control.IdleFrac)
	}
	p.ControlThreads = -1
	if p.Validate() == nil {
		t.Error("negative ControlThreads accepted")
	}
}

func TestControlThreadsDefaultUnchanged(t *testing.T) {
	// ControlThreads 0 and 1 are the same system with identical seeds.
	p := fast()
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.ControlThreads = 1
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Control.Ops != b.Control.Ops {
		t.Errorf("default vs explicit single thread differ: %d vs %d",
			a.Control.Ops, b.Control.Ops)
	}
}

func TestHotspotDegradesBalanceAndRatio(t *testing.T) {
	p := fast()
	p.Nodes = 16
	p.Parallelism = 16
	p.RemoteFrac = 0.5
	p.Latency = 500
	uniform, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Hotspot = 0.75
	hot, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Ratio >= uniform.Ratio {
		t.Errorf("hotspot ratio %g not below uniform %g", hot.Ratio, uniform.Ratio)
	}
	// The hotspot node is the busiest (lowest idle).
	minIdle := 1.0
	minAt := -1
	for i, idle := range hot.Test.PerNodeIdle {
		if idle < minIdle {
			minIdle = idle
			minAt = i
		}
	}
	if minAt != 0 {
		t.Errorf("busiest node = %d, want the hotspot node 0", minAt)
	}
	p.Hotspot = 1.5
	if p.Validate() == nil {
		t.Error("invalid hotspot accepted")
	}
}

func TestReplicate(t *testing.T) {
	p := fast()
	p.Horizon = 10000
	r, err := Replicate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio.N != 5 {
		t.Errorf("replications = %d", r.Ratio.N)
	}
	if r.Ratio.Mean <= 0 || r.Ratio.CI95 <= 0 {
		t.Errorf("ratio stats = %+v", r.Ratio)
	}
	// CI must be small relative to the mean for a stable configuration.
	if r.Ratio.CI95 > r.Ratio.Mean {
		t.Errorf("CI %g wider than mean %g", r.Ratio.CI95, r.Ratio.Mean)
	}
	if _, err := Replicate(p, 1); err == nil {
		t.Error("single replication accepted")
	}
}

func TestSaturationAnalyticOrdering(t *testing.T) {
	// The analytic ratio prediction should be within a factor ~2 of the
	// simulation in the saturated regime and preserve ordering across
	// latencies.
	p := fast()
	p.Parallelism = 32
	p.RemoteFrac = 0.5
	for _, l := range []float64{200, 1000, 4000} {
		p.Latency = l
		r, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		pred := TestSaturationRatioAnalytic(p)
		if r.Ratio < pred/2 || r.Ratio > pred*2 {
			t.Errorf("L=%g: sim ratio %g vs analytic %g beyond 2x band", l, r.Ratio, pred)
		}
	}
}
