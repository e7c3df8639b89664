package core

import (
	"io"
	"math"
	"testing"
)

// worst names one check's value, how to read it from an outcome's
// metrics, and which way its bound lies.
type worst struct {
	name   string
	metric func(m map[string]float64) float64
	max    bool // the check bounds the value from above
}

// seedCase is one experiment of a seed sweep and the check values it
// logs.
type seedCase struct {
	exp    *Experiment
	worsts []worst
}

// sweepSeeds runs each case in quick mode at seeds 0–39 (0–9 under
// -short) and requires every paper check to pass at every seed. It logs
// each named check's worst value over the seeds, so a margin that
// shrinks shows before a seed fails.
func sweepSeeds(t *testing.T, cases []seedCase) {
	t.Helper()
	seeds := uint64(40)
	if testing.Short() {
		seeds = 10
	}
	for _, c := range cases {
		vals := make([]float64, len(c.worsts))
		at := make([]uint64, len(c.worsts))
		for i, w := range c.worsts {
			vals[i] = math.Inf(1)
			if w.max {
				vals[i] = math.Inf(-1)
			}
		}
		for seed := uint64(0); seed < seeds; seed++ {
			o, err := c.exp.Run(Config{Seed: seed, Quick: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.exp.ID, seed, err)
			}
			for _, ch := range o.Failed() {
				t.Errorf("%s seed %d: check %q failed: %s", c.exp.ID, seed, ch.Name, ch.Detail)
			}
			for i, w := range c.worsts {
				if v := w.metric(o.Metrics); w.max && v > vals[i] || !w.max && v < vals[i] {
					vals[i], at[i] = v, seed
				}
			}
		}
		for i, w := range c.worsts {
			t.Logf("%s: worst %s over seeds 0-%d: %.4g (seed %d)", c.exp.ID, w.name, seeds-1, vals[i], at[i])
		}
	}
}

// mustFind returns the registered experiment id.
func mustFind(t *testing.T, id string) *Experiment {
	t.Helper()
	e, err := Find(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestParcelChecksHoldAtEverySeed sweeps the experiments on the parcel
// test system: fig11, fig12 and replication.
func TestParcelChecksHoldAtEverySeed(t *testing.T) {
	sweepSeeds(t, []seedCase{
		{mustFind(t, "fig11"), []worst{
			{"best_ratio (>= 10)", func(m map[string]float64) float64 { return m["best_ratio"] }, false},
			{"worst_ratio (<= 1.1)", func(m map[string]float64) float64 { return m["worst_ratio"] }, true},
		}},
		{mustFind(t, "fig12"), []worst{
			{"test_idle_saturated (< 0.1)", func(m map[string]float64) float64 { return m["test_idle_saturated"] }, true},
			{"ctrl_idle_saturated (> 0.5)", func(m map[string]float64) float64 { return m["ctrl_idle_saturated"] }, false},
		}},
		{mustFind(t, "replication"), []worst{
			{"ratio_ci/ratio_mean (< 0.1)", func(m map[string]float64) float64 { return m["ratio_ci"] / m["ratio_mean"] }, true},
		}},
	})
}

// TestHostPIMChecksHoldAtEverySeed sweeps the experiments on the study-1
// queuing model — fig4 (whose checks are structural, so it logs no
// value), fig5, fig6, accuracy and combined — and the cross-backend
// agreement of the study-1 presets the scenarios experiment checks
// against the simulator: paper-extreme, balanced-overlap and
// paper-baseline.
func TestHostPIMChecksHoldAtEverySeed(t *testing.T) {
	quickW := study1W(Config{Quick: true})
	cases := []seedCase{
		{mustFind(t, "fig4"), nil},
		{mustFind(t, "fig5"), []worst{
			{"gain_small_pct (> 1.5)", func(m map[string]float64) float64 { return m["gain_small_pct"] }, false},
			{"gain_full_lwp (>= 50 quick)", func(m map[string]float64) float64 { return m["gain_full_lwp"] }, false},
			{"gain_data_intensive (>= 4.5)", func(m map[string]float64) float64 { return m["gain_data_intensive"] }, false},
		}},
		{mustFind(t, "fig6"), []worst{
			{"|flatness_0pct - 1| (< 0.02)", func(m map[string]float64) float64 { return math.Abs(m["flatness_0pct"] - 1) }, true},
			{"|t_100pct_n1/(tL*W) - 1| (< 0.02)", func(m map[string]float64) float64 {
				return math.Abs(m["t_100pct_n1"]/(12.5*quickW) - 1)
			}, true},
			{"|scaling_100pct/64 - 1| (< 0.05)", func(m map[string]float64) float64 { return math.Abs(m["scaling_100pct"]/64 - 1) }, true},
		}},
		{mustFind(t, "accuracy"), []worst{
			{"err_max (<= 0.18)", func(m map[string]float64) float64 { return m["err_max"] }, true},
		}},
		{mustFind(t, "combined"), []worst{
			{"|calibrated/analytic - 1| (< 0.2)", func(m map[string]float64) float64 {
				return math.Abs(m["calibrated_gain"]/m["gain_P64_L2000"] - 1)
			}, true},
		}},
	}
	for _, name := range []string{"paper-extreme", "balanced-overlap", "paper-baseline"} {
		e, err := ScenarioExperiment(name, "all")
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, seedCase{e, []worst{
			{"analytic vs sim, worst symmetric rel err (<= 0.05)", func(m map[string]float64) float64 {
				var d float64
				for _, k := range []string{"gain", "relative", "total"} {
					a, s := m["analytic/"+k], m["sim/"+k]
					d = max(d, math.Abs(a-s)/max(math.Abs(a), math.Abs(s)))
				}
				return d
			}, true},
		}})
	}
	sweepSeeds(t, cases)
}
