package parcelsys

// The driver's contract: Params.RunParallel gives results that are
// exactly identical — every op count, idle fraction, and queue mean, bit
// for bit — for every value, because the two systems share no state, so
// running them side by side changes nothing. RunParallel 0 and 1 run the
// systems one after the other; 2 and above run them side by side, one
// kernel each.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/rng"
	"repro/internal/stats"
)

// parParams is a small but non-trivial point: multiple threads per
// control node, hotspot traffic, enough horizon for thousands of
// transactions.
func parParams() Params {
	p := DefaultParams()
	p.Nodes = 9
	p.Parallelism = 3
	p.Latency = 50
	p.Horizon = 20000
	p.Seed = 5
	p.ControlThreads = 2
	p.Hotspot = 0.2
	return p
}

// genParams draws one parameter point: 1-12 nodes, 1-8 parcels per node,
// 0-3 control threads, optional hotspot skew, either overhead model, and
// a flat or hop-topology interconnect. A zero latency is drawn only for a
// single node; TestRunParallelZeroLatency covers it on several.
func genParams(g *rng.Stream) Params {
	p := DefaultParams()
	p.Nodes = 1 + g.Intn(12)
	p.Parallelism = 1 + g.Intn(8)
	p.RemoteFrac = g.Uniform(0.05, 1)
	p.MixMem = g.Uniform(0.1, 1)
	p.MemCycles = float64(1 + g.Intn(20))
	p.Latency = float64(1 + g.Intn(300))
	if p.Nodes == 1 && g.Bool() {
		p.Latency = 0
	}
	if g.Bool() {
		p.Overhead = parcel.SoftwareOnly()
	}
	p.ControlThreads = g.Intn(4)
	if g.Bool() {
		p.Hotspot = g.Float64()
	}
	if p.Nodes > 1 && p.Latency > 0 && g.Bool() {
		p.Net = network.NewHop(network.Ring{N: p.Nodes}, p.Latency/2, float64(g.Intn(5)))
	}
	p.Horizon = 2000 + float64(g.Intn(4000))
	p.Seed = g.Uint64()
	return p
}

func TestRunParallelInvariance(t *testing.T) {
	points := 40
	if testing.Short() {
		points = 12
	}
	g := rng.New(2004)
	for n := 0; n < points; n++ {
		p := genParams(g)
		want, err := Run(p)
		if err != nil {
			t.Fatalf("point %d %+v: %v", n, p, err)
		}
		if want.Control.Ops == 0 || want.Test.Ops == 0 {
			t.Fatalf("point %d: degenerate run %+v", n, want)
		}
		for _, rp := range []int{1, 2, 3, 4, 2*p.Nodes + 4} {
			q := p
			q.RunParallel = rp
			got, err := Run(q)
			if err != nil {
				t.Fatalf("point %d RunParallel=%d: %v", n, rp, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("point %d (%+v) RunParallel=%d diverged from 0:\n got  %+v\n want %+v",
					n, p, rp, got, want)
			}
		}
	}
}

// TestRunParallelBankRoundTrip pins the bank in the one case with no
// queueing at all: two nodes, every operation a remote access, one
// thread each. Each thread's round trip is the request latency, the
// service, and the reply latency, so it completes exactly
// floor(Horizon/(2·Latency+MemCycles)) accesses and never computes.
func TestRunParallelBankRoundTrip(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 2
	p.MixMem = 1
	p.RemoteFrac = 1
	p.Latency = 50
	p.MemCycles = 10
	p.Horizon = 20000
	perThread := int64(math.Floor(p.Horizon / (2*p.Latency + p.MemCycles)))
	for _, rp := range []int{0, 2} {
		p.RunParallel = rp
		r, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		c := r.Control
		if c.Ops != 2*perThread || c.RemoteAccesses != 2*perThread {
			t.Errorf("RunParallel=%d: ops %d, remote %d; want %d each",
				rp, c.Ops, c.RemoteAccesses, 2*perThread)
		}
		if c.IdleFrac != 1 {
			t.Errorf("RunParallel=%d: control idle %g, want 1 (no compute)", rp, c.IdleFrac)
		}
	}
}

// TestRunParallelBankHotspotSaturated pins the bank's FIFO service rate:
// with Hotspot 1 every other node's accesses target node 0, whose bank
// saturates and completes one access per MemCycles, while node 0's own
// thread round-trips to idle banks at one access per
// 2·Latency+MemCycles. Saturation needs (Nodes−1)·MemCycles ≥
// 2·Latency+MemCycles; the hot bank's fill and drain at the horizon's
// ends cost 2·Latency/MemCycles accesses, under Nodes here.
func TestRunParallelBankHotspotSaturated(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 12
	p.MixMem = 1
	p.RemoteFrac = 1
	p.Hotspot = 1
	p.Latency = 20
	p.MemCycles = 10
	p.Horizon = 20000
	want := p.Horizon/p.MemCycles + p.Horizon/(2*p.Latency+p.MemCycles)
	for _, rp := range []int{0, 3} {
		p.RunParallel = rp
		r, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := float64(r.Control.Ops); math.Abs(got-want) > float64(p.Nodes) {
			t.Errorf("RunParallel=%d: control ops %g, want %g ± %d", rp, got, want, p.Nodes)
		}
	}
}

// TestRunParallelZeroLatency: a zero one-way latency is a valid point at
// every RunParallel, and every value gives the results of RunParallel 0.
func TestRunParallelZeroLatency(t *testing.T) {
	p := parParams()
	p.Latency = 0
	want, err := Run(p)
	if err != nil {
		t.Fatalf("zero latency at RunParallel 0: %v", err)
	}
	if want.Control.Ops == 0 || want.Test.Ops == 0 {
		t.Fatalf("degenerate zero-latency run %+v", want)
	}
	for _, rp := range []int{1, 2, 3, 4, 2*p.Nodes + 4} {
		p.RunParallel = rp
		got, err := Run(p)
		if err != nil {
			t.Fatalf("zero latency at RunParallel %d: %v", rp, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("zero latency at RunParallel %d diverged from 0:\n got  %+v\n want %+v", rp, got, want)
		}
	}
}

// TestRunParallelReplicate: the replication driver reuses its slabs
// across side-by-side runs too.
func TestRunParallelReplicate(t *testing.T) {
	p := parParams()
	p.Horizon = 5000
	p.RunParallel = 3
	rr, err := Replicate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Ratio.N != 3 || rr.Ratio.Mean <= 0 {
		t.Fatalf("replicated ratio %+v", rr.Ratio)
	}
}

// TestReplicateAllocsPinned pins the allocation count of one run on
// Replicate's reused-slab path (a warmed runState) at parParams. The
// runState's two kernels are reset, not rebuilt, so their events and
// the event queues' wheels and heaps are reused too; the remaining
// allocations are the result slices. Neither system has resources,
// signals, stores or activity contexts left.
func TestReplicateAllocsPinned(t *testing.T) {
	checkReusedSlabAllocs(t, parParams(), 4)
}

// TestReplicateAllocsPinnedSideBySide pins the same path at RunParallel
// 2, the systems side by side: the serial run's allocations plus five
// for the control's goroutine — the goroutine, its closure, the results
// it shares with the caller and the channel that joins it.
func TestReplicateAllocsPinnedSideBySide(t *testing.T) {
	p := parParams()
	p.RunParallel = 2
	checkReusedSlabAllocs(t, p, 9)
}

// TestReplicateMatchesFreshRuns holds Replicate, whose replications
// reuse one runState and its two reset kernels, to the same
// replications each run by Run on fresh state, field for field, with
// the systems one after the other and side by side.
func TestReplicateMatchesFreshRuns(t *testing.T) {
	for _, par := range []int{0, 2} {
		p := parParams()
		p.Horizon = 5000
		p.RunParallel = par
		const reps = 4
		got, err := Replicate(p, reps)
		if err != nil {
			t.Fatal(err)
		}
		var ratio, ctrl, test stats.Sample
		seeds := rng.New(p.Seed)
		for i := 0; i < reps; i++ {
			q := p
			q.Seed = seeds.Uint64()
			r, err := Run(q)
			if err != nil {
				t.Fatal(err)
			}
			ratio.Add(r.Ratio)
			ctrl.Add(r.Control.IdleFrac)
			test.Add(r.Test.IdleFrac)
		}
		mk := func(s *stats.Sample) Replicated {
			return Replicated{Mean: s.Mean(), CI95: s.CI(0.95), N: int(s.N())}
		}
		want := ReplicatedResult{Ratio: mk(&ratio), CtrlIdle: mk(&ctrl), TestIdle: mk(&test)}
		if got != want {
			t.Errorf("RunParallel %d: Replicate %+v, fresh runs %+v", par, got, want)
		}
	}
}

// checkReusedSlabAllocs fails unless one run of p on a warmed runState
// allocates at most pinned objects.
func checkReusedSlabAllocs(t *testing.T, p Params, pinned int) {
	t.Helper()
	var rs runState
	if _, err := runWith(p, &rs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := runWith(p, &rs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per reused-slab run at RunParallel %d: %g", p.RunParallel, allocs)
	if allocs > float64(pinned) {
		t.Errorf("reused-slab run at RunParallel %d allocates %g objects, pinned at %d", p.RunParallel, allocs, pinned)
	}
}
