package hostpim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func defaults(pct float64, n int) Params {
	p := DefaultParams()
	p.PctWL = pct
	p.N = n
	return p
}

func TestTable1PerOpCosts(t *testing.T) {
	p := DefaultParams()
	// tH = 1 + 0.3*(2-1 + 0.1*90) = 4.0 HWP cycles per op.
	if got := p.HWPOpCycles(p.Pmiss); math.Abs(got-4.0) > 1e-12 {
		t.Errorf("HWP op cycles = %g, want 4", got)
	}
	// tL = 5 + 0.3*(30-5) = 12.5 HWP cycles per op.
	if got := p.LWPOpCycles(); math.Abs(got-12.5) > 1e-12 {
		t.Errorf("LWP op cycles = %g, want 12.5", got)
	}
	// NB = 12.5/4 = 3.125.
	if got := p.NB(); math.Abs(got-3.125) > 1e-12 {
		t.Errorf("NB = %g, want 3.125", got)
	}
}

func TestTimeRelativeMatchesPaperEquation(t *testing.T) {
	// Verify Analytic's Relative equals the published closed form
	// 1 − %WL (1 − NB/N) across the sweep grid.
	for _, pct := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1} {
		for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
			p := defaults(pct, n)
			p.Control = ControlFixedMiss
			r, err := Analytic(p)
			if err != nil {
				t.Fatal(err)
			}
			want := TimeRelative(p)
			if math.Abs(r.Relative-want) > 1e-12 {
				t.Errorf("pct=%g N=%d: Relative=%g, equation=%g", pct, n, r.Relative, want)
			}
		}
	}
}

func TestCrossoverIndependentOfPctWL(t *testing.T) {
	// At N = NB the relative time is exactly 1 for every %WL — the paper's
	// "point of coincidence... independent of %WL".
	p := DefaultParams()
	nb := p.NB()
	for _, pct := range []float64{0.1, 0.5, 0.9, 1} {
		q := p
		q.PctWL = pct
		// Evaluate the closed form at the (fractional) coincidence point.
		rel := 1 - pct*(1-nb/nb)
		if math.Abs(rel-1) > 1e-12 {
			t.Errorf("pct=%g: relative at N=NB is %g, want 1", pct, rel)
		}
		_ = q
	}
}

func TestRelativeMonotoneInN(t *testing.T) {
	// For %WL > 0, adding nodes can only help.
	err := quick.Check(func(pctRaw, nRaw uint8) bool {
		pct := float64(pctRaw%100)/100.0 + 0.01
		n := 1 + int(nRaw%128)
		p1 := defaults(pct, n)
		p2 := defaults(pct, n+1)
		r1, err1 := Analytic(p1)
		r2, err2 := Analytic(p2)
		if err1 != nil || err2 != nil {
			return false
		}
		return r2.Total <= r1.Total+1e-9
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestGainAboveOneIffNAboveNB(t *testing.T) {
	// Under the fixed-miss control, gain > 1 exactly when N > NB (for
	// %WL > 0) — the paper's superiority condition.
	p := DefaultParams()
	p.Control = ControlFixedMiss
	for _, n := range []int{1, 2, 3, 4, 8, 64} {
		q := defaults(0.5, n)
		q.Control = ControlFixedMiss
		r, err := Analytic(q)
		if err != nil {
			t.Fatal(err)
		}
		if float64(n) > p.NB() && r.Gain <= 1 {
			t.Errorf("N=%d > NB but gain %g <= 1", n, r.Gain)
		}
		if float64(n) < p.NB() && r.Gain >= 1 {
			t.Errorf("N=%d < NB but gain %g >= 1", n, r.Gain)
		}
	}
}

func TestPaperHeadlineGains(t *testing.T) {
	// §3.1.1: "even for a small amount of LWP work including PIMs in the
	// system may double the performance" — locality-aware control, 10-20%
	// LWP work, many nodes.
	r, err := Analytic(defaults(0.2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if r.Gain < 2 {
		t.Errorf("gain at 20%% LWP work, 64 nodes = %g, paper promises ~2x", r.Gain)
	}
	// "an order of magnitude performance gain" for data-intensive work.
	r, err = Analytic(defaults(0.8, 64))
	if err != nil {
		t.Fatal(err)
	}
	if r.Gain < 10 {
		t.Errorf("gain at 80%% LWP work = %g, paper promises >= 10x", r.Gain)
	}
	// "in the extreme case where essentially all work resides on the LWP
	// array... a factor of 100X gain is observed" for some configurations.
	r, err = Analytic(defaults(1.0, 64))
	if err != nil {
		t.Fatal(err)
	}
	if r.Gain < 100 {
		t.Errorf("extreme gain = %g, paper reports ~100X", r.Gain)
	}
}

func TestFixedMissControlCapsGain(t *testing.T) {
	// Under fixed-miss control the maximum gain is N/NB.
	p := defaults(1.0, 64)
	p.Control = ControlFixedMiss
	r, err := Analytic(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 64 / p.NB()
	if math.Abs(r.Gain-want)/want > 1e-9 {
		t.Errorf("fixed-miss extreme gain = %g, want N/NB = %g", r.Gain, want)
	}
}

func TestZeroLWPWorkIsNeutral(t *testing.T) {
	// %WL = 0: test system == control system (no LWP phase at all).
	for _, n := range []int{1, 16, 256} {
		r, err := Analytic(defaults(0, n))
		if err != nil {
			t.Fatal(err)
		}
		if r.TimeLWPPhase != 0 {
			t.Errorf("N=%d: LWP phase = %g with no LWP work", n, r.TimeLWPPhase)
		}
		if math.Abs(r.Gain-1) > 1e-12 {
			t.Errorf("N=%d: gain = %g, want 1", n, r.Gain)
		}
	}
}

func TestFigure6Endpoints(t *testing.T) {
	// Fig. 6's axes: with Table 1 parameters, 0% LWT is flat at 4e8 cycles;
	// 100% LWT at N=1 is 1.25e9 cycles.
	r, err := Analytic(defaults(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Total-4e8)/4e8 > 1e-12 {
		t.Errorf("0%% LWT total = %g, want 4e8", r.Total)
	}
	r, err = Analytic(defaults(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Total-1.25e9)/1.25e9 > 1e-12 {
		t.Errorf("100%% LWT total = %g, want 1.25e9", r.Total)
	}
}

func TestSimulationMatchesAnalytic(t *testing.T) {
	// The DES queuing model and the closed form agree tightly (the paper
	// saw 5–18%; our simulator is the same statistical model, so the
	// agreement must be well inside that band).
	for _, tc := range []struct {
		pct float64
		n   int
	}{
		{0, 1}, {0.3, 4}, {0.5, 8}, {0.9, 32}, {1, 64},
	} {
		p := defaults(tc.pct, tc.n)
		p.W = 2e6 // keep the test fast; statistics scale-invariant
		an, err := Analytic(p)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := Simulate(p, SimOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if e := stats.RelErr(sr.Total, an.Total); e > 0.05 {
			t.Errorf("pct=%g N=%d: sim %g vs analytic %g (err %.3f)",
				tc.pct, tc.n, sr.Total, an.Total, e)
		}
		if e := stats.RelErr(sr.ControlTime, an.ControlTime); e > 0.05 {
			t.Errorf("pct=%g N=%d: control sim %g vs analytic %g",
				tc.pct, tc.n, sr.ControlTime, an.ControlTime)
		}
	}
}

func TestSimulationDeterministic(t *testing.T) {
	p := defaults(0.5, 4)
	p.W = 1e6
	a, err := Simulate(p, SimOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(p, SimOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total || a.ControlTime != b.ControlTime {
		t.Errorf("same seed differed: %g/%g vs %g/%g", a.Total, a.ControlTime, b.Total, b.ControlTime)
	}
	c, err := Simulate(p, SimOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Total == c.Total {
		t.Error("different seeds produced identical totals (suspicious)")
	}
}

func TestSimulationNodeTimesUniform(t *testing.T) {
	// Threads are uniform in length; node completion times should be
	// tightly clustered (CLT spread only).
	p := defaults(1, 8)
	p.W = 4e6
	r, err := Simulate(p, SimOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var s stats.Sample
	for _, nt := range r.NodeTimes {
		s.Add(nt)
	}
	if s.N() != 8 {
		t.Fatalf("node times = %d, want 8", s.N())
	}
	if spread := (s.Max() - s.Min()) / s.Mean(); spread > 0.05 {
		t.Errorf("node completion spread = %g, threads should be uniform", spread)
	}
}

func TestSimulationPhaseExclusivity(t *testing.T) {
	// "At any one time, either the HWP or LWP array is executing but not
	// both": phases are sequential, so Total == HWP phase + LWP phase.
	p := defaults(0.4, 4)
	p.W = 1e6
	r, err := Simulate(p, SimOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Total-(r.TimeHWPPhase+r.TimeLWPPhase)) > 1e-6 {
		t.Errorf("total %g != HWP %g + LWP %g", r.Total, r.TimeHWPPhase, r.TimeLWPPhase)
	}
}

func TestAgreementBandWithinPaper(t *testing.T) {
	// The paper reproduced simulation with the analytic model "to an
	// accuracy of between 5% and 18%". Our band must stay at or below the
	// paper's worst case.
	pcts := []float64{0, 0.2, 0.5, 0.8, 1}
	nodes := []int{1, 4, 16, 64}
	_, mean, max, err := AgreementBand(DefaultParams(), pcts, nodes, 1e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if max > 0.18 {
		t.Errorf("max sim/analytic disagreement %.3f exceeds the paper's 18%% bound", max)
	}
	if mean > 0.05 {
		t.Errorf("mean disagreement %.3f is suspiciously large for a matched model", mean)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.W = 0 },
		func(p *Params) { p.PctWL = -0.1 },
		func(p *Params) { p.PctWL = 1.1 },
		func(p *Params) { p.N = 0 },
		func(p *Params) { p.TLCycle = 0 },
		func(p *Params) { p.Pmiss = 2 },
		func(p *Params) { p.MixLS = -1 },
		func(p *Params) { p.W = math.NaN() },
		func(p *Params) { p.W = math.Inf(1) },
		func(p *Params) { p.PctWL = math.NaN() },
		func(p *Params) { p.TLCycle = math.Inf(1) },
		func(p *Params) { p.TMH = math.NaN() },
		func(p *Params) { p.TCH = math.Inf(-1) },
		func(p *Params) { p.TML = math.NaN() },
		func(p *Params) { p.Pmiss = math.NaN() },
		func(p *Params) { p.PmissLow = math.NaN() },
		func(p *Params) { p.MixLS = math.NaN() },
		func(p *Params) { p.Control = ControlPolicy(5) },
		func(p *Params) { p.Control = -1 },
	}
	for i, mod := range cases {
		p := DefaultParams()
		mod(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestAnalyticIdentitiesProperty(t *testing.T) {
	// Model identities that must hold at every valid parameter point:
	// Gain·Total == ControlTime, Total == phases' sum, Relative matches
	// the published closed form under the fixed-miss normalization.
	err := quick.Check(func(pctRaw, nRaw, missRaw, mixRaw uint16) bool {
		p := DefaultParams()
		p.PctWL = float64(pctRaw%101) / 100
		p.N = 1 + int(nRaw%256)
		p.Pmiss = float64(missRaw%100) / 100
		p.MixLS = float64(mixRaw%90)/100 + 0.05
		p.Control = ControlFixedMiss
		r, err := Analytic(p)
		if err != nil {
			return false
		}
		if math.Abs(r.Gain*r.Total-r.ControlTime) > 1e-6*r.ControlTime {
			return false
		}
		if math.Abs(r.Total-(r.TimeHWPPhase+r.TimeLWPPhase)) > 1e-6*r.Total {
			return false
		}
		return math.Abs(r.Relative-TimeRelative(p)) < 1e-9
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestControlPoliciesAgreeAtZeroLowLocality(t *testing.T) {
	// With %WL = 0 the two control policies are the same system.
	err := quick.Check(func(nRaw uint8) bool {
		p := defaults(0, 1+int(nRaw%64))
		p.Control = ControlFixedMiss
		a, err1 := Analytic(p)
		p.Control = ControlLocalityAware
		b, err2 := Analytic(p)
		return err1 == nil && err2 == nil &&
			math.Abs(a.ControlTime-b.ControlTime) < 1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestGainCurveShape(t *testing.T) {
	pcts := []float64{0, 0.25, 0.5, 0.75, 1}
	gains, err := GainCurve(DefaultParams(), 16, pcts)
	if err != nil {
		t.Fatal(err)
	}
	// Gain grows monotonically in %WL for N >> NB.
	for i := 1; i < len(gains); i++ {
		if gains[i] <= gains[i-1] {
			t.Errorf("gain not increasing at pct=%g: %v", pcts[i], gains)
		}
	}
	if math.Abs(gains[0]-1) > 1e-12 {
		t.Errorf("gain at 0%% = %g, want 1", gains[0])
	}
}

func TestResponseCurveShape(t *testing.T) {
	nodes := []int{1, 2, 4, 8, 16, 32, 64}
	t100, err := ResponseCurve(DefaultParams(), 1.0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	t0, err := ResponseCurve(DefaultParams(), 0, nodes)
	if err != nil {
		t.Fatal(err)
	}
	// 0% LWT: flat. 100% LWT: ~1/N decay.
	for i := range nodes {
		if math.Abs(t0[i]-t0[0]) > 1e-6 {
			t.Errorf("0%% LWT curve not flat: %v", t0)
		}
	}
	if ratio := t100[0] / t100[len(t100)-1]; math.Abs(ratio-64) > 1e-6 {
		t.Errorf("100%% LWT N=1/N=64 ratio = %g, want 64", ratio)
	}
}

func TestOverlapAnalytic(t *testing.T) {
	// Overlap total = max(phases); serial total = sum. Overlap never
	// loses, and the two agree when either phase is empty.
	for _, pct := range []float64{0, 0.3, 0.7, 1} {
		for _, n := range []int{1, 8, 64} {
			serial := defaults(pct, n)
			over := serial
			over.Overlap = true
			rs, err := Analytic(serial)
			if err != nil {
				t.Fatal(err)
			}
			ro, err := Analytic(over)
			if err != nil {
				t.Fatal(err)
			}
			if ro.Total > rs.Total+1e-9 {
				t.Errorf("pct=%g N=%d: overlap %g worse than serial %g", pct, n, ro.Total, rs.Total)
			}
			if want := math.Max(rs.TimeHWPPhase, rs.TimeLWPPhase); math.Abs(ro.Total-want) > 1e-6 {
				t.Errorf("pct=%g N=%d: overlap total %g, want max(phases) %g", pct, n, ro.Total, want)
			}
			if pct == 0 || pct == 1 {
				if math.Abs(ro.Total-rs.Total) > 1e-9 {
					t.Errorf("pct=%g: overlap %g != serial %g with one empty phase",
						pct, ro.Total, rs.Total)
				}
			}
		}
	}
}

func TestOverlapSimulationMatchesAnalytic(t *testing.T) {
	p := defaults(0.5, 8)
	p.W = 2e6
	p.Overlap = true
	an, err := Analytic(p)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Simulate(p, SimOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(sr.Total, an.Total); e > 0.05 {
		t.Errorf("overlap sim %g vs analytic %g (err %.3f)", sr.Total, an.Total, e)
	}
	// Overlapped run must finish no later than the serial run.
	ps := p
	ps.Overlap = false
	srs, err := Simulate(ps, SimOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Total > srs.Total {
		t.Errorf("overlap sim %g slower than serial sim %g", sr.Total, srs.Total)
	}
}

func TestSimulationUtilizations(t *testing.T) {
	// In the 100% LWP case the HWP never works; in the 0% case the LWPs
	// never work.
	p := defaults(1, 4)
	p.W = 1e6
	r, err := Simulate(p, SimOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if r.HWPUtil > 1e-9 {
		t.Errorf("HWP utilization = %g with 100%% LWP work", r.HWPUtil)
	}
	if r.LWPUtil < 0.9 {
		t.Errorf("LWP utilization = %g, expected ~1", r.LWPUtil)
	}
	p = defaults(0, 4)
	p.W = 1e6
	r, err = Simulate(p, SimOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if r.LWPUtil > 1e-9 {
		t.Errorf("LWP utilization = %g with no LWP work", r.LWPUtil)
	}
}
