package core

import (
	"io"
	"math"
	"testing"
)

// TestParcelChecksHoldAtEverySeed runs the experiments on the parcel
// test system — fig11, fig12 and replication — in quick mode at seeds
// 0–39 (0–9 under -short) and requires every paper check to pass at every
// seed. It logs each check's worst value over the seeds, so a margin
// that shrinks shows before a seed fails.
func TestParcelChecksHoldAtEverySeed(t *testing.T) {
	seeds := uint64(40)
	if testing.Short() {
		seeds = 10
	}
	type worst struct {
		name   string
		metric func(m map[string]float64) float64
		max    bool // the check bounds the value from above
	}
	cases := []struct {
		id     string
		worsts []worst
	}{
		{"fig11", []worst{
			{"best_ratio (>= 10)", func(m map[string]float64) float64 { return m["best_ratio"] }, false},
			{"worst_ratio (<= 1.1)", func(m map[string]float64) float64 { return m["worst_ratio"] }, true},
		}},
		{"fig12", []worst{
			{"test_idle_saturated (< 0.1)", func(m map[string]float64) float64 { return m["test_idle_saturated"] }, true},
			{"ctrl_idle_saturated (> 0.5)", func(m map[string]float64) float64 { return m["ctrl_idle_saturated"] }, false},
		}},
		{"replication", []worst{
			{"ratio_ci/ratio_mean (< 0.1)", func(m map[string]float64) float64 { return m["ratio_ci"] / m["ratio_mean"] }, true},
		}},
	}
	for _, c := range cases {
		e, err := Find(c.id)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, len(c.worsts))
		at := make([]uint64, len(c.worsts))
		for i, w := range c.worsts {
			vals[i] = math.Inf(1)
			if w.max {
				vals[i] = math.Inf(-1)
			}
		}
		for seed := uint64(0); seed < seeds; seed++ {
			o, err := e.Run(Config{Seed: seed, Quick: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.id, seed, err)
			}
			for _, ch := range o.Failed() {
				t.Errorf("%s seed %d: check %q failed: %s", c.id, seed, ch.Name, ch.Detail)
			}
			for i, w := range c.worsts {
				if v := w.metric(o.Metrics); w.max && v > vals[i] || !w.max && v < vals[i] {
					vals[i], at[i] = v, seed
				}
			}
		}
		for i, w := range c.worsts {
			t.Logf("%s: worst %s over seeds 0-%d: %.4g (seed %d)", c.id, w.name, seeds-1, vals[i], at[i])
		}
	}
}
