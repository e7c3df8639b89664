package core

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/analytic"
	"repro/internal/hostpim"
	"repro/internal/hybrid"
	"repro/internal/parcelsys"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func init() {
	register(&Experiment{
		ID:    "fig4",
		Title: "Figure 4: threads timeline (execution-flow rendering)",
		PaperClaim: "the test system alternates: one HWP phase, then N uniform " +
			"concurrent LWP threads; at any one time either the HWP or the LWP " +
			"array is executing but not both",
		Run: runFig4,
	})
	register(&Experiment{
		ID:    "sensitivity",
		Title: "NB sensitivity analysis (design guidance)",
		PaperClaim: "NB is 'both machine and application dependent'; sweeping " +
			"parameters exposes which knobs move the break-even node count",
		Run: runSensitivity,
	})
	register(&Experiment{
		ID:    "ablation-overlap",
		Title: "A5: serial (Fig. 4) vs overlapped host/PIM execution",
		PaperClaim: "the paper's flow is strictly alternating; overlapping the " +
			"phases is the natural extension and bounds the benefit left on the table",
		Run: runAblationOverlap,
	})
	register(&Experiment{
		ID:    "combined",
		Title: "Hybrid model: study 1 gains under study 2 communication",
		PaperClaim: "the introduction motivates hybrid host+PIM systems; composing the " +
			"two studies shows inter-PIM latency eroding Fig. 5's gains at low " +
			"parallelism and parcels restoring them",
		Run: runCombined,
	})
	register(&Experiment{
		ID:    "replication",
		Title: "Fig. 11 point with independent-replication confidence intervals",
		PaperClaim: "the paper reports single-run statistical results; replicated " +
			"runs quantify their stability",
		Run: runReplication,
	})
}

func runFig4(cfg Config, w io.Writer) (*Outcome, error) {
	// A deliberately small run. Each station renders as one processor
	// piece and one memory piece.
	base := table1Base()
	base.Workload.W = 40000
	base.Workload.PctWL = 0.5
	base.Machine.N = 4
	p, err := hostParams(base)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	rec.Filter = func(track string) bool {
		return track == "hwp-phase" || strings.HasPrefix(track, "lwp-")
	}
	res, err := hostpim.Simulate(p, hostpim.SimOptions{Seed: cfg.Seed, Tracer: rec})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Figure 4 — threads timeline (HWP phase then %d uniform LWP threads)\n\n", p.N)
	if err := rec.Gantt(w, 0, res.Total, 72); err != nil {
		return nil, err
	}
	fmt.Fprintln(w)

	o := &Outcome{Metrics: map[string]float64{
		"hwp_phase": res.TimeHWPPhase,
		"lwp_phase": res.TimeLWPPhase,
	}}
	// Verify phase exclusivity from the *trace*: no lwp run-state before
	// the HWP phase ends.
	earliestLWP := math.Inf(1)
	for _, e := range rec.Events() {
		if strings.HasPrefix(e.Track, "lwp-") && e.State == "start" && e.T < earliestLWP {
			earliestLWP = e.T
		}
	}
	o.check("LWP threads start only after the HWP phase",
		earliestLWP >= res.TimeHWPPhase-1e-9,
		"first LWP start at %.0f, HWP phase ends %.0f", earliestLWP, res.TimeHWPPhase)
	// All N threads appear.
	seen := map[string]bool{}
	for _, e := range rec.Events() {
		if strings.HasPrefix(e.Track, "lwp-") {
			seen[e.Track] = true
		}
	}
	o.check("all N LWP threads present in the timeline",
		len(seen) == p.N, "%d of %d threads traced", len(seen), p.N)
	return o, nil
}

func runSensitivity(cfg Config, w io.Writer) (*Outcome, error) {
	base, err := hostParams(table1Base())
	if err != nil {
		return nil, err
	}
	sens := analytic.NBSensitivities(base)
	t := report.NewTable("NB elasticities at the Table 1 point (d ln NB / d ln θ)",
		"parameter", "elasticity", "direction")
	var maxAbs float64
	var maxName string
	for _, s := range sens {
		dir := "raises NB (hurts PIM)"
		if s.Elasticity < 0 {
			dir = "lowers NB (helps PIM)"
		}
		t.AddRow(s.Param, s.Elasticity, dir)
		if a := math.Abs(s.Elasticity); a > maxAbs {
			maxAbs = a
			maxName = s.Param
		}
	}
	if err := emitTable(cfg, w, "sensitivity", t); err != nil {
		return nil, err
	}
	o := &Outcome{Metrics: map[string]float64{"max_abs_elasticity": maxAbs}}
	o.check("TML dominates the break-even (memory time is PIM's lever)",
		maxName == "TML", "largest |elasticity| is %s (%.3f)", maxName, maxAbs)
	// Elasticities of a log-ratio must pair up: numerator terms sum to 1,
	// denominator terms to -1.
	var num, den float64
	for _, s := range sens {
		if s.Elasticity > 0 {
			num += s.Elasticity
		} else {
			den += s.Elasticity
		}
	}
	o.Metrics["numerator_sum"] = num
	o.check("numerator elasticities sum to 1 (tL is degree-1 homogeneous)",
		math.Abs(num-1) < 1e-3, "sum=%.4f", num)
	return o, nil
}

func runAblationOverlap(cfg Config, w io.Writer) (*Outcome, error) {
	t := report.NewTable("A5 — Serial vs overlapped execution (analytic totals, locality-aware gains)",
		"%WL", "N", "serial cycles", "overlap cycles", "overlap speedup")
	o := &Outcome{Metrics: map[string]float64{}}
	var bestSpeedup float64
	base, err := hostParams(table1Base())
	if err != nil {
		return nil, err
	}
	tH := base.HWPOpCycles(base.Pmiss)
	tL := base.LWPOpCycles()
	for _, n := range []int{1, 4, 16, 64} {
		// Include the balanced split for this N — the phases equalize at
		// %WL* = N·tH / (N·tH + tL), where overlap reaches its 2x bound.
		balanced := float64(n) * tH / (float64(n)*tH + tL)
		for _, pct := range []float64{0.2, 0.5, balanced, 0.8} {
			serial := base
			serial.PctWL = pct
			serial.N = n
			over := serial
			over.Overlap = true
			rs, err := hostpim.Analytic(serial)
			if err != nil {
				return nil, err
			}
			ro, err := hostpim.Analytic(over)
			if err != nil {
				return nil, err
			}
			sp := rs.Total / ro.Total
			if sp > bestSpeedup {
				bestSpeedup = sp
			}
			t.AddRow(pct, n, rs.Total, ro.Total, sp)
		}
	}
	if err := emitTable(cfg, w, "ablation_overlap", t); err != nil {
		return nil, err
	}
	o.Metrics["best_overlap_speedup"] = bestSpeedup
	o.check("overlap speedup is bounded by 2x",
		bestSpeedup <= 2+1e-9, "best=%.3f", bestSpeedup)
	o.check("balanced phases reach the 2x bound",
		bestSpeedup > 2-1e-9, "best=%.6f at the balanced split", bestSpeedup)
	return o, nil
}

func runCombined(cfg Config, w io.Writer) (*Outcome, error) {
	t := report.NewTable("Hybrid host+PIM: gain vs inter-PIM latency and parcels per node (%WL=0.5, N=32)",
		"latency", "parcels/node", "efficiency", "gain", "effective NB")
	o := &Outcome{Metrics: map[string]float64{}}
	base := scenario.MustFind("hybrid-baseline")
	hbase, err := base.HybridParams(scenario.Config{})
	if err != nil {
		return nil, err
	}
	ideal, err := hostpim.Analytic(hbase.Host)
	if err != nil {
		return nil, err
	}
	var gainP1L2000, gainP64L2000 float64
	for _, l := range []float64{0, 200, 2000} {
		for _, threads := range []int{1, 8, 64} {
			s := base
			s.Machine.Latency = l
			s.Workload.Parallelism = threads
			p, err := s.HybridParams(scenario.Config{})
			if err != nil {
				return nil, err
			}
			r, err := hybrid.Analytic(p)
			if err != nil {
				return nil, err
			}
			nb, err := hybrid.EffectiveNB(p)
			if err != nil {
				return nil, err
			}
			t.AddRow(l, threads, r.Efficiency, r.Gain, nb)
			if l == 2000 && threads == 1 {
				gainP1L2000 = r.Gain
			}
			if l == 2000 && threads == 64 {
				gainP64L2000 = r.Gain
			}
		}
	}
	if err := emitTable(cfg, w, "combined", t); err != nil {
		return nil, err
	}
	// Cross-check one point against the parcelsys-calibrated efficiency.
	horizon := 40000.0
	if cfg.Quick {
		horizon = 15000
	}
	spt := base
	spt.Machine.Latency = 2000
	spt.Workload.Parallelism = 64
	pt, err := spt.HybridParams(scenario.Config{})
	if err != nil {
		return nil, err
	}
	cal, err := hybrid.AnalyticCalibrated(pt, horizon, cfg.Seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "calibration cross-check at L=2000, P=64: analytic gain %.2f, "+
		"parcelsys-calibrated gain %.2f\n\n", gainP64L2000, cal.Gain)

	o.Metrics["ideal_gain"] = ideal.Gain
	o.Metrics["gain_P1_L2000"] = gainP1L2000
	o.Metrics["gain_P64_L2000"] = gainP64L2000
	o.Metrics["calibrated_gain"] = cal.Gain
	o.check("latency erodes the study-1 gain at P=1",
		gainP1L2000 < ideal.Gain/2,
		"ideal %.1f -> %.1f at L=2000, P=1", ideal.Gain, gainP1L2000)
	o.check("parcels restore most of the gain",
		gainP64L2000 > 0.85*ideal.Gain,
		"P=64 recovers %.1f of ideal %.1f", gainP64L2000, ideal.Gain)
	o.check("calibrated and analytic agree within 20%",
		math.Abs(cal.Gain-gainP64L2000)/gainP64L2000 < 0.2,
		"analytic %.2f vs calibrated %.2f", gainP64L2000, cal.Gain)
	return o, nil
}

func runReplication(cfg Config, w io.Writer) (*Outcome, error) {
	s := scenario.MustFind("fig11-point")
	s.Machine.Latency = 500
	s.Workload.Parallelism = 16
	s.Workload.RemoteFrac = 0.4
	p, err := s.ParcelParams(scenarioConfig(cfg))
	if err != nil {
		return nil, err
	}
	reps := 10
	if cfg.Quick {
		reps = 6
	}
	r, err := parcelsys.Replicate(p, reps)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Fig. 11 point (P=16, r=0.4, L=500) over %d replications", reps),
		"metric", "mean", "95%% CI half-width", "relative")
	add := func(name string, rep parcelsys.Replicated) {
		rel := 0.0
		if rep.Mean != 0 {
			rel = rep.CI95 / rep.Mean
		}
		t.AddRow(name, rep.Mean, rep.CI95, rel)
	}
	add("ops ratio", r.Ratio)
	add("control idle", r.CtrlIdle)
	add("test idle", r.TestIdle)
	if err := emitTable(cfg, w, "replication", t); err != nil {
		return nil, err
	}
	o := &Outcome{Metrics: map[string]float64{
		"ratio_mean": r.Ratio.Mean,
		"ratio_ci":   r.Ratio.CI95,
	}}
	o.check("replicated ratio is stable (CI < 10% of mean)",
		r.Ratio.CI95 < 0.1*r.Ratio.Mean,
		"ratio %.2f ± %.2f", r.Ratio.Mean, r.Ratio.CI95)
	return o, nil
}
