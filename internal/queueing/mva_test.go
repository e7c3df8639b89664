package queueing

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestMVASingleCustomer(t *testing.T) {
	// With one customer there is no queueing: cycle time = sum of demands.
	st := []Station{
		{Name: "cpu", Kind: QueueingStation, Demand: 2},
		{Name: "disk", Kind: QueueingStation, Demand: 3},
		{Name: "think", Kind: DelayStation, Demand: 5},
	}
	r, err := MVA(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.CycleTime-10) > 1e-12 {
		t.Errorf("cycle = %g, want 10", r.CycleTime)
	}
	if math.Abs(r.Throughput-0.1) > 1e-12 {
		t.Errorf("X = %g, want 0.1", r.Throughput)
	}
}

func TestMVAKnownTwoStation(t *testing.T) {
	// Classic textbook example: two queueing stations, D1=1, D2=2, N=2.
	// n=1: r=(1,2), X=1/3, q=(1/3,2/3).
	// n=2: r=(1*(1+1/3), 2*(1+2/3)) = (4/3, 10/3); X=2/(14/3)=3/7.
	st := []Station{
		{Name: "a", Kind: QueueingStation, Demand: 1},
		{Name: "b", Kind: QueueingStation, Demand: 2},
	}
	r, err := MVA(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Throughput-3.0/7.0) > 1e-12 {
		t.Errorf("X = %g, want 3/7", r.Throughput)
	}
	if math.Abs(r.ResidenceTimes[0]-4.0/3.0) > 1e-12 ||
		math.Abs(r.ResidenceTimes[1]-10.0/3.0) > 1e-12 {
		t.Errorf("residence = %v", r.ResidenceTimes)
	}
}

func TestMVAQueueLengthsSumToN(t *testing.T) {
	st := []Station{
		{Name: "a", Kind: QueueingStation, Demand: 1.5},
		{Name: "b", Kind: QueueingStation, Demand: 0.5},
		{Name: "z", Kind: DelayStation, Demand: 4},
	}
	for _, n := range []int{1, 2, 5, 20, 100} {
		r, err := MVA(st, n)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, q := range r.QueueLengths {
			sum += q
		}
		if math.Abs(sum-float64(n)) > 1e-9 {
			t.Errorf("N=%d: queue lengths sum to %g", n, sum)
		}
	}
}

func TestMVAThroughputMonotoneAndBounded(t *testing.T) {
	st := []Station{
		{Name: "cpu", Kind: QueueingStation, Demand: 1},
		{Name: "net", Kind: DelayStation, Demand: 20},
	}
	xs, err := MVASweep(st, 60)
	if err != nil {
		t.Fatal(err)
	}
	_, xMax, bn, err := BottleneckAnalysis(st)
	if err != nil {
		t.Fatal(err)
	}
	if bn != "cpu" {
		t.Errorf("bottleneck = %q", bn)
	}
	prev := 0.0
	for i, x := range xs {
		if x < prev-1e-12 {
			t.Fatalf("throughput fell at N=%d", i+1)
		}
		if x > xMax+1e-12 {
			t.Fatalf("throughput %g exceeds bound %g", x, xMax)
		}
		prev = x
	}
	// With 60 customers and N* = 21, the network saturates.
	if xs[59] < 0.99*xMax {
		t.Errorf("saturated throughput = %g, bound %g", xs[59], xMax)
	}
}

func TestBottleneckSaturationPoint(t *testing.T) {
	st := []Station{
		{Name: "cpu", Kind: QueueingStation, Demand: 10},
		{Name: "think", Kind: DelayStation, Demand: 90},
	}
	nStar, xMax, _, err := BottleneckAnalysis(st)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nStar-10) > 1e-12 {
		t.Errorf("N* = %g, want 10", nStar)
	}
	if math.Abs(xMax-0.1) > 1e-12 {
		t.Errorf("Xmax = %g, want 0.1", xMax)
	}
	// This is exactly the Saavedra-Barrera saturation point for R=10,
	// L=90, C=0 (see internal/analytic): the two models agree.
}

func TestMVAMatchesClosedNetworkSimulation(t *testing.T) {
	// Simulate the closed machine-repairman-style network via the
	// ActClosedLoop component: N customers cycling through an exponential
	// CPU (queueing) and an exponential think delay. Compare throughput
	// and cycle time with exact MVA.
	const cpuDemand, thinkDemand = 1.0, 8.0
	const n = 6
	st := []Station{
		{Name: "cpu", Kind: QueueingStation, Demand: cpuDemand},
		{Name: "think", Kind: DelayStation, Demand: thinkDemand},
	}
	want, err := MVA(st, n)
	if err != nil {
		t.Fatal(err)
	}

	k := sim.NewKernel()
	svc := rng.NewWithStream(77, 1)
	think := rng.NewWithStream(77, 2)
	loop := NewActClosedLoop("repair", n)
	cpu := NewActServer(k, "cpu", 1, func(*Job) float64 { return svc.Exp(cpuDemand) }, loop)
	wait := NewActDelay(k, "think", func(*Job) float64 { return think.Exp(thinkDemand) }, cpu)
	loop.Start(k, wait)
	const horizon = 200000
	if err := k.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if stats.RelErr(loop.Throughput(horizon), want.Throughput) > 0.03 {
		t.Errorf("sim X = %g, MVA X = %g", loop.Throughput(horizon), want.Throughput)
	}
	if stats.RelErr(cpu.Utilization(k.Now()), want.Utilizations[0]) > 0.03 {
		t.Errorf("sim U = %g, MVA U = %g", cpu.Utilization(k.Now()), want.Utilizations[0])
	}
	if stats.RelErr(loop.CycleTimes.Mean(), want.CycleTime) > 0.03 {
		t.Errorf("sim cycle = %g, MVA cycle = %g", loop.CycleTimes.Mean(), want.CycleTime)
	}
}

func TestClosedLoopPopulationConserved(t *testing.T) {
	// The loop keeps exactly its population circulating: mean resident
	// jobs at the server plus in think equals N (Little on the circuit).
	const n = 5
	k := sim.NewKernel()
	svc := rng.NewWithStream(3, 1)
	loop := NewActClosedLoop("loop", n)
	wait := NewActDelay(k, "z", func(*Job) float64 { return 8 }, loop)
	cpu := NewActServer(k, "cpu", 1, func(*Job) float64 { return svc.Exp(2) }, wait)
	loop.Start(k, cpu)
	const horizon = 100000
	if err := k.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if loop.Population() != n {
		t.Errorf("population = %d", loop.Population())
	}
	// X * cycleTime = N (Little's law on the closed circuit).
	if got := loop.Throughput(horizon) * loop.CycleTimes.Mean(); stats.RelErr(got, n) > 0.02 {
		t.Errorf("X*cycle = %g, want %d", got, n)
	}
}

func TestClosedLoopPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewActClosedLoop("bad", 0)
}

func TestMVAModelsParcelControlSystem(t *testing.T) {
	// The study-2 control system as a closed network: one customer (the
	// blocking thread) cycling through CPU work, local memory, and a
	// network round-trip delay. MVA cycle time must match the parcelsys
	// analytic control idle fraction.
	const eOps = 7.0 / 3.0 // mean useful ops per access at mix 0.3
	const mem = 10.0
	const remoteFrac = 0.3
	const lat = 300.0
	st := []Station{
		{Name: "cpu", Kind: QueueingStation, Demand: eOps},
		{Name: "mem", Kind: QueueingStation, Demand: mem},
		{Name: "net", Kind: DelayStation, Demand: remoteFrac * 2 * lat},
	}
	r, err := MVA(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	idle := r.ResidenceTimes[2] / r.CycleTime
	want := (remoteFrac * 2 * lat) / (eOps + mem + remoteFrac*2*lat)
	if math.Abs(idle-want) > 1e-12 {
		t.Errorf("MVA idle = %g, closed form %g", idle, want)
	}
}

func TestMVAErrors(t *testing.T) {
	if _, err := MVA(nil, 1); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := MVA([]Station{{Demand: 1}}, 0); err == nil {
		t.Error("zero population accepted")
	}
	if _, err := MVA([]Station{{Demand: -1}}, 1); err == nil {
		t.Error("negative demand accepted")
	}
	if _, _, _, err := BottleneckAnalysis([]Station{{Kind: DelayStation, Demand: 1}}); err == nil {
		t.Error("delay-only network accepted")
	}
}
