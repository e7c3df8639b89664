package scenario

import (
	"fmt"
	"math"
	"sort"
)

// tolerance describes how one metric is compared across backends.
type tolerance struct {
	// Tol is the allowed difference.
	Tol float64
	// Abs compares |a−b| directly instead of the symmetric relative
	// error — right for fractions near zero (idle, efficiency), where
	// relative error explodes without meaning.
	Abs bool
}

// defaultTolerances states how far two models of the same design point may
// legitimately disagree. Time-domain metrics compare relatively (the
// repo's accuracy experiment bounds analytic-vs-simulation at a few
// percent; 5% leaves headroom). The Fig. 11 ratio compares the exact MVA
// network against a simulation with non-exponential service and real
// destination contention, so it gets the widest relative band. Fractions
// compare absolutely. Metrics absent from this map (and from Scenario.Tol)
// are reported but never checked.
var defaultTolerances = map[string]tolerance{
	MetricGain:       {Tol: 0.05},
	MetricTotal:      {Tol: 0.05},
	MetricRelative:   {Tol: 0.05},
	MetricRatio:      {Tol: 0.35},
	MetricCtrlIdle:   {Tol: 0.10, Abs: true},
	MetricTestIdle:   {Tol: 0.15, Abs: true},
	MetricEfficiency: {Tol: 0.15, Abs: true},
}

// toleranceFor resolves the scenario's tolerance for a metric; ok is false
// when the metric is not subject to agreement checks.
func toleranceFor(s Scenario, metric string) (tolerance, bool) {
	def, ok := defaultTolerances[metric]
	if t, o := s.Tol[metric]; o {
		return tolerance{Tol: t, Abs: def.Abs}, true
	}
	return def, ok
}

// Agreement is one pairwise cross-backend comparison of one metric.
type Agreement struct {
	// Metric names the compared metric.
	Metric string
	// A and B name the backends; ValA and ValB are their values.
	A, B       string
	ValA, ValB float64
	// Diff is the measured difference: |a−b| when Abs, else the
	// symmetric relative error |a−b|/max(|a|,|b|).
	Diff float64
	// Abs reports the comparison mode.
	Abs bool
	// Tol is the allowed difference; Pass is Diff <= Tol.
	Tol  float64
	Pass bool
}

// CrossValidate runs the scenario on every supporting backend and compares
// each shared metric between each backend pair against the stated
// tolerances. Results come back in backend presentation order and
// agreements sorted by (metric, A, B), so output built from them is
// deterministic.
func CrossValidate(s Scenario, cfg Config) ([]Result, []Agreement, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	sup := SupportingBackends(s)
	if len(sup) == 0 {
		return nil, nil, fmt.Errorf("scenario: no backend supports %s", s.Name)
	}
	results := make([]Result, 0, len(sup))
	for _, b := range sup {
		r, err := b.Run(s, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: %s on %s: %w", s.Name, b.Name(), err)
		}
		results = append(results, r)
	}
	var ags []Agreement
	for i := 0; i < len(results); i++ {
		for j := i + 1; j < len(results); j++ {
			ags = append(ags, compare(s, results[i], results[j])...)
		}
	}
	sort.Slice(ags, func(i, j int) bool {
		if ags[i].Metric != ags[j].Metric {
			return ags[i].Metric < ags[j].Metric
		}
		if ags[i].A != ags[j].A {
			return ags[i].A < ags[j].A
		}
		return ags[i].B < ags[j].B
	})
	return results, ags, nil
}

// compare produces agreements for the metrics two results share.
func compare(s Scenario, a, b Result) []Agreement {
	var out []Agreement
	for _, m := range a.MetricKeys() {
		vb, ok := b.Metrics[m]
		if !ok {
			continue
		}
		tol, checked := toleranceFor(s, m)
		if !checked {
			continue
		}
		va := a.Metrics[m]
		diff := relErr(va, vb)
		if tol.Abs {
			diff = math.Abs(va - vb)
		}
		out = append(out, Agreement{
			Metric: m, A: a.Backend, B: b.Backend,
			ValA: va, ValB: vb,
			Diff: diff, Abs: tol.Abs, Tol: tol.Tol,
			Pass: diff <= tol.Tol,
		})
	}
	return out
}

// Disagreements returns the failed agreements.
func Disagreements(ags []Agreement) []Agreement {
	var out []Agreement
	for _, a := range ags {
		if !a.Pass {
			out = append(out, a)
		}
	}
	return out
}
