package queueing

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// simulateMM1 runs an M/M/1 queue for `horizon` time units and returns the
// measured mean sojourn time and resource utilization.
func simulateMM1(t *testing.T, lambda, mu, horizon float64, seed uint64) (w, util float64, sink *Sink) {
	t.Helper()
	k := sim.NewKernel()
	arr := rng.NewWithStream(seed, 1)
	svc := rng.NewWithStream(seed, 2)
	sink = NewSink("out")
	srv := NewActServer(k, "srv", 1, func(*Job) float64 { return svc.Exp(1 / mu) }, sink)
	src := NewActSource(k, "in", func() float64 { return arr.Exp(1 / lambda) }, srv)
	sink.Recycle = src.Dispose
	src.Start()
	if err := k.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return sink.Sojourn.Mean(), srv.Utilization(k.Now()), sink
}

func TestMM1TheoryKnownValues(t *testing.T) {
	r, err := MM1(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Rho-0.5) > 1e-12 || math.Abs(r.W-2) > 1e-12 || math.Abs(r.L-1) > 1e-12 {
		t.Errorf("MM1(0.5,1) = %+v", r)
	}
	if _, err := MM1(1, 1); err == nil {
		t.Error("unstable MM1 accepted")
	}
	if _, err := MM1(-1, 1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestMM1SimulationMatchesTheory(t *testing.T) {
	const lambda, mu = 0.7, 1.0
	theory, err := MM1(lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	w, util, sink := simulateMM1(t, lambda, mu, 300000, 99)
	if sink.Count() < 100000 {
		t.Fatalf("too few completions: %d", sink.Count())
	}
	if stats.RelErr(w, theory.W) > 0.05 {
		t.Errorf("sim W = %g, theory %g", w, theory.W)
	}
	if stats.RelErr(util, theory.Rho) > 0.03 {
		t.Errorf("sim ρ = %g, theory %g", util, theory.Rho)
	}
}

func TestMM1LittlesLaw(t *testing.T) {
	// L = λW must hold for the simulated system too.
	const lambda, mu = 0.6, 1.0
	k := sim.NewKernel()
	arr := rng.NewWithStream(7, 1)
	svc := rng.NewWithStream(7, 2)
	sink := NewSink("out")
	srv := NewActServer(k, "srv", 1, func(*Job) float64 { return svc.Exp(1 / mu) }, sink)
	NewActSource(k, "in", func() float64 { return arr.Exp(1 / lambda) }, srv).Start()
	const horizon = 200000
	if err := k.Run(horizon); err != nil {
		t.Fatal(err)
	}
	// L measured as time-average of (queue + in service).
	l := srv.QueueLen.Mean(k.Now()) + srv.Util.Mean(k.Now())
	effLambda := float64(sink.Count()) / horizon
	w := sink.Sojourn.Mean()
	if stats.RelErr(l, effLambda*w) > 0.05 {
		t.Errorf("Little's law violated: L=%g λW=%g", l, effLambda*w)
	}
}

func TestMMCTheoryKnownValues(t *testing.T) {
	// Classic reference: λ=2, μ=1, c=3 ⇒ ErlangC ≈ 0.4444, Wq ≈ 0.4444.
	r, err := MMC(2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.ErlangC-4.0/9.0) > 1e-9 {
		t.Errorf("ErlangC = %g, want 4/9", r.ErlangC)
	}
	if math.Abs(r.Wq-4.0/9.0) > 1e-9 {
		t.Errorf("Wq = %g, want 4/9", r.Wq)
	}
	// c=1 must reduce to M/M/1.
	r1, err := MMC(0.5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := MM1(0.5, 1)
	if math.Abs(r1.W-m1.W) > 1e-9 {
		t.Errorf("MMC(c=1).W = %g, MM1.W = %g", r1.W, m1.W)
	}
}

func TestMMCSimulationMatchesTheory(t *testing.T) {
	const lambda, mu = 2.4, 1.0
	const c = 3
	theory, err := MMC(lambda, mu, c)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	arr := rng.NewWithStream(13, 1)
	svc := rng.NewWithStream(13, 2)
	sink := NewSink("out")
	srv := NewActServer(k, "srv", c, func(*Job) float64 { return svc.Exp(1 / mu) }, sink)
	NewActSource(k, "in", func() float64 { return arr.Exp(1 / lambda) }, srv).Start()
	if err := k.Run(200000); err != nil {
		t.Fatal(err)
	}
	if stats.RelErr(sink.Sojourn.Mean(), theory.W) > 0.05 {
		t.Errorf("sim W = %g, theory %g", sink.Sojourn.Mean(), theory.W)
	}
}

func TestMD1SimulationMatchesTheory(t *testing.T) {
	const lambda = 0.8
	const svcTime = 1.0
	theory, err := MD1(lambda, svcTime)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	arr := rng.NewWithStream(17, 1)
	sink := NewSink("out")
	srv := NewActServer(k, "srv", 1, func(*Job) float64 { return svcTime }, sink)
	NewActSource(k, "in", func() float64 { return arr.Exp(1 / lambda) }, srv).Start()
	if err := k.Run(200000); err != nil {
		t.Fatal(err)
	}
	if stats.RelErr(sink.Sojourn.Mean(), theory.W) > 0.05 {
		t.Errorf("sim W = %g, theory %g", sink.Sojourn.Mean(), theory.W)
	}
	// M/D/1 must beat M/M/1 at the same load (half the queueing delay).
	mm1, _ := MM1(lambda, 1/svcTime)
	if theory.Wq >= mm1.Wq {
		t.Errorf("M/D/1 Wq %g not below M/M/1 Wq %g", theory.Wq, mm1.Wq)
	}
	if math.Abs(theory.Wq-mm1.Wq/2) > 1e-9 {
		t.Errorf("M/D/1 Wq %g != half of M/M/1 Wq %g", theory.Wq, mm1.Wq)
	}
}

func TestMG1ReducesToMM1(t *testing.T) {
	err := quick.Check(func(lr, mr uint8) bool {
		lambda := 0.05 + float64(lr%80)/100.0 // 0.05..0.84
		mu := 1.0
		if lambda >= mu {
			return true
		}
		mm1, err1 := MM1(lambda, mu)
		// Exponential service: variance = mean^2.
		mg1, err2 := MG1(lambda, 1/mu, 1/(mu*mu))
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(mm1.W-mg1.W) < 1e-9 && math.Abs(mm1.Lq-mg1.Lq) < 1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestPSServerMeanSojournMatchesTheory(t *testing.T) {
	// M/M/1-PS has the same mean sojourn as M/M/1-FCFS.
	const lambda, mu = 0.7, 1.0
	want, err := MM1PSMeanSojourn(lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	arr := rng.NewWithStream(23, 1)
	svc := rng.NewWithStream(23, 2)
	sink := NewSink("out")
	ps := NewActPSServer(k, "ps", func(*Job) float64 { return svc.Exp(1 / mu) }, sink)
	NewActSource(k, "in", func() float64 { return arr.Exp(1 / lambda) }, ps).Start()
	if err := k.Run(200000); err != nil {
		t.Fatal(err)
	}
	if sink.Count() < 50000 {
		t.Fatalf("too few completions: %d", sink.Count())
	}
	if stats.RelErr(ps.Sojourn.Mean(), want) > 0.06 {
		t.Errorf("PS mean sojourn = %g, theory %g", ps.Sojourn.Mean(), want)
	}
}

func TestPSServerShortJobsFinishFaster(t *testing.T) {
	// Under PS, conditional sojourn grows with job size: E[T|x] = x/(1-ρ).
	const lambda, mu = 0.5, 1.0
	k := sim.NewKernel()
	arr := rng.NewWithStream(29, 1)
	svc := rng.NewWithStream(29, 2)
	var shortS, longS stats.Sample
	sink := ActNodeFunc(func(k *sim.Kernel, j *Job) {
		soj := k.Now() - j.Created
		if j.Attrs["size"] < 0.5 {
			shortS.Add(soj)
		} else if j.Attrs["size"] > 2 {
			longS.Add(soj)
		}
	})
	ps := NewActPSServer(k, "ps", func(j *Job) float64 {
		x := svc.Exp(1 / mu)
		j.Attrs = map[string]float64{"size": x}
		return x
	}, sink)
	NewActSource(k, "in", func() float64 { return arr.Exp(1 / lambda) }, ps).Start()
	if err := k.Run(50000); err != nil {
		t.Fatal(err)
	}
	if shortS.N() < 100 || longS.N() < 100 {
		t.Fatalf("not enough stratified observations: %d/%d", shortS.N(), longS.N())
	}
	if shortS.Mean() >= longS.Mean() {
		t.Errorf("short jobs (%g) not faster than long jobs (%g) under PS",
			shortS.Mean(), longS.Mean())
	}
}

func TestDelayIsPureLatency(t *testing.T) {
	k := sim.NewKernel()
	sink := NewSink("out")
	d := NewActDelay(k, "wire", func(*Job) float64 { return 25 }, sink)
	for i := 0; i < 10; i++ {
		d.AcceptAct(k, &Job{Created: k.Now()})
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// All 10 jobs traverse simultaneously (no queueing): each sojourn = 25.
	if sink.Sojourn.Min() != 25 || sink.Sojourn.Max() != 25 {
		t.Errorf("delay sojourns = [%g, %g], want exactly 25",
			sink.Sojourn.Min(), sink.Sojourn.Max())
	}
}

func TestRouterClassBased(t *testing.T) {
	k := sim.NewKernel()
	s0, s1 := NewSink("c0"), NewSink("c1")
	r := NewActRouter("byclass", func(j *Job) int { return j.Class }, s0, s1)
	for _, class := range []int{0, 1, 1} {
		r.AcceptAct(k, &Job{Class: class, Created: k.Now()})
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if s0.Count() != 1 || s1.Count() != 2 {
		t.Errorf("counts = %d/%d, want 1/2", s0.Count(), s1.Count())
	}
}

func TestProbRouterFrequencies(t *testing.T) {
	k := sim.NewKernel()
	st := rng.New(31)
	s0, s1 := NewSink("a"), NewSink("b")
	r := NewActRouter("prob", ProbRouter(st, []float64{0.25, 0.75}), s0, s1)
	for i := 0; i < 40000; i++ {
		r.AcceptAct(k, &Job{Created: k.Now()})
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	frac := float64(s0.Count()) / 40000
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("P(route 0) = %g, want 0.25", frac)
	}
}

func TestSourceLimit(t *testing.T) {
	k := sim.NewKernel()
	sink := NewSink("out")
	src := NewActSource(k, "in", func() float64 { return 1 }, sink)
	src.Limit = 7
	src.Start()
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != 7 {
		t.Errorf("generated %d, want 7", sink.Count())
	}
}

func TestJacksonTandem(t *testing.T) {
	// Tandem of two M/M/1 queues: λ=0.5 into node 0, all flow to node 1.
	gamma := []float64{0.5, 0}
	P := [][]float64{{0, 1}, {0, 0}}
	nodes := []JacksonNode{{Mu: 1, Servers: 1}, {Mu: 2, Servers: 1}}
	res, err := Jackson(gamma, P, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda[1]-0.5) > 1e-9 {
		t.Errorf("node 1 rate = %g, want 0.5", res.Lambda[1])
	}
	w0, _ := MM1(0.5, 1)
	w1, _ := MM1(0.5, 2)
	if math.Abs(res.W[0]-w0.W) > 1e-9 || math.Abs(res.W[1]-w1.W) > 1e-9 {
		t.Errorf("Jackson W = %v", res.W)
	}
}

func TestJacksonFeedback(t *testing.T) {
	// Single node with feedback probability 0.5: effective λ = γ/(1-0.5).
	gamma := []float64{0.3}
	P := [][]float64{{0.5}}
	nodes := []JacksonNode{{Mu: 1, Servers: 1}}
	res, err := Jackson(gamma, P, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda[0]-0.6) > 1e-9 {
		t.Errorf("effective λ = %g, want 0.6", res.Lambda[0])
	}
}

func TestKingmanExactForMM1(t *testing.T) {
	// With ca²=cs²=1 (Poisson arrivals, exponential service) Kingman is
	// exact: Wq = ρ/(1−ρ)·E[S].
	const lambda, mu = 0.7, 1.0
	want, _ := MM1(lambda, mu)
	got, err := Kingman(lambda, 1/mu, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want.Wq) > 1e-12 {
		t.Errorf("Kingman = %g, M/M/1 Wq = %g", got, want.Wq)
	}
}

func TestKingmanMatchesMD1(t *testing.T) {
	// Deterministic service: cs²=0 halves the M/M/1 wait — exactly M/D/1.
	const lambda = 0.8
	md1, _ := MD1(lambda, 1)
	got, err := Kingman(lambda, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-md1.Wq) > 1e-12 {
		t.Errorf("Kingman(cs2=0) = %g, M/D/1 Wq = %g", got, md1.Wq)
	}
}

func TestKingmanPredictsErlangArrivalSim(t *testing.T) {
	// E2/M/1: Erlang-2 interarrivals (ca² = 0.5). Kingman approximates;
	// the simulation should land within ~15% at moderate load.
	const mu = 1.0
	const meanIA = 1.0 / 0.7
	k := sim.NewKernel()
	arr := rng.NewWithStream(51, 1)
	svc := rng.NewWithStream(51, 2)
	sink := NewSink("out")
	srv := NewActServer(k, "srv", 1, func(*Job) float64 { return svc.Exp(1 / mu) }, sink)
	NewActSource(k, "in", func() float64 { return arr.Erlang(2, meanIA/2) }, srv).Start()
	if err := k.Run(200000); err != nil {
		t.Fatal(err)
	}
	simWq := sink.Sojourn.Mean() - 1/mu
	pred, err := Kingman(0.7, 1/mu, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelErr(simWq, pred) > 0.15 {
		t.Errorf("sim Wq = %g, Kingman = %g", simWq, pred)
	}
	// Lower arrival variability must reduce waiting vs M/M/1.
	mm1, _ := MM1(0.7, mu)
	if simWq >= mm1.Wq {
		t.Errorf("E2/M/1 wait %g not below M/M/1 %g", simWq, mm1.Wq)
	}
}

func TestAllenCunneenReducesToMMC(t *testing.T) {
	ac, err := AllenCunneen(2, 1, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mmc, _ := MMC(2, 1, 3)
	if math.Abs(ac-mmc.Wq) > 1e-12 {
		t.Errorf("AllenCunneen(1,1) = %g, M/M/c Wq = %g", ac, mmc.Wq)
	}
	if _, err := AllenCunneen(2, 1, 3, -1, 1); err == nil {
		t.Error("negative variability accepted")
	}
}

func TestServerNegativeServicePanics(t *testing.T) {
	k := sim.NewKernel()
	srv := NewActServer(k, "bad", 1, func(*Job) float64 { return -1 }, nil)
	k.ScheduleArg(1, func(any) { srv.AcceptAct(k, &Job{Created: k.Now()}) }, nil)
	if err := k.Run(10); err == nil {
		t.Fatal("expected error from negative service time")
	}
}

func TestTandemNetworkSimulation(t *testing.T) {
	// End-to-end: source -> server -> delay -> server -> sink. Mean sojourn
	// should approximate the Jackson tandem plus the fixed delay.
	const lambda = 0.4
	k := sim.NewKernel()
	arr := rng.NewWithStream(41, 1)
	s1 := rng.NewWithStream(41, 2)
	s2 := rng.NewWithStream(41, 3)
	sink := NewSink("out")
	srv2 := NewActServer(k, "srv2", 1, func(*Job) float64 { return s2.Exp(1) }, sink)
	wire := NewActDelay(k, "wire", func(*Job) float64 { return 10 }, srv2)
	srv1 := NewActServer(k, "srv1", 1, func(*Job) float64 { return s1.Exp(0.5) }, wire)
	NewActSource(k, "in", func() float64 { return arr.Exp(1 / lambda) }, srv1).Start()
	if err := k.Run(100000); err != nil {
		t.Fatal(err)
	}
	w1, _ := MM1(lambda, 2)
	w2, _ := MM1(lambda, 1)
	want := w1.W + 10 + w2.W
	if stats.RelErr(sink.Sojourn.Mean(), want) > 0.06 {
		t.Errorf("tandem sojourn = %g, want ~%g", sink.Sojourn.Mean(), want)
	}
}

// BenchmarkMM1Simulation measures throughput of the DES stations on a
// standard M/M/1 at rho=0.7 (jobs are values flowing through inline
// station handlers).
func BenchmarkMM1Simulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		arr := rng.NewWithStream(uint64(i), 1)
		svc := rng.NewWithStream(uint64(i), 2)
		sink := NewSink("out")
		srv := NewActServer(k, "srv", 1, func(*Job) float64 { return svc.Exp(1) }, sink)
		src := NewActSource(k, "in", func() float64 { return arr.Exp(1 / 0.7) }, srv)
		sink.Recycle = src.Dispose
		src.Start()
		if err := k.Run(5000); err != nil {
			b.Fatal(err)
		}
	}
}
