package scenario

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestDecodeSpecStrict(t *testing.T) {
	cases := []struct {
		name, body string
		wantErr    string
	}{
		{"minimal", `{"preset":"paper-baseline"}`, ""},
		{"full", `{"preset":"machine-gups","backend":"machine","fields":{"nodes":16},"seed":7,"quick":true,"replications":3,"timeout_ms":500}`, ""},
		{"empty body", ``, "bad spec"},
		{"not json", `preset=paper-baseline`, "bad spec"},
		{"unknown key", `{"preset":"paper-baseline","presett":"x"}`, "bad spec"},
		{"trailing garbage", `{"preset":"paper-baseline"} {"preset":"x"}`, "trailing data"},
		{"trailing token", `{"preset":"paper-baseline"} 1`, "trailing data"},
		{"wrong type", `{"preset":7}`, "bad spec"},
		{"array body", `[{"preset":"paper-baseline"}]`, "bad spec"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeSpec([]byte(c.body))
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("DecodeSpec(%s): %v", c.body, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("DecodeSpec(%s) err = %v, want %q", c.body, err, c.wantErr)
			}
		})
	}
}

func TestResolveAppliesFieldsAndPicksBackend(t *testing.T) {
	sp := Spec{
		Preset:    "machine-gups",
		Fields:    map[string]float64{"nodes": 16, "updates": 32},
		Seed:      9,
		Quick:     true,
		TimeoutMS: 250,
	}
	r, err := sp.Resolve(DefaultSpecLimits())
	if err != nil {
		t.Fatal(err)
	}
	if r.Scenario.Machine.N != 16 || r.Scenario.Workload.Updates != 32 {
		t.Errorf("overrides not applied: N=%d Updates=%d",
			r.Scenario.Machine.N, r.Scenario.Workload.Updates)
	}
	if r.Backend != "machine" {
		t.Errorf("Backend = %q, want the machine backend", r.Backend)
	}
	if r.Replications != 1 || r.Timeout != 250*time.Millisecond || r.Seed != 9 || !r.Quick {
		t.Errorf("run parameters wrong: %+v", r)
	}
}

func TestResolveRejections(t *testing.T) {
	lim := DefaultSpecLimits()
	cases := []struct {
		name    string
		sp      Spec
		wantErr string
	}{
		{"unknown preset", Spec{Preset: "nope"}, "unknown preset"},
		{"unknown field", Spec{Preset: "paper-baseline", Fields: map[string]float64{"bogus": 1}}, "unknown field"},
		{"unknown backend", Spec{Preset: "paper-baseline", Backend: "gpu"}, "unknown backend"},
		{"unsupporting backend", Spec{Preset: "paper-baseline", Backend: "machine"}, "does not support"},
		{"invalid point", Spec{Preset: "paper-baseline", Fields: map[string]float64{"pctwl": 2}}, "PctWL"},
		{"nan field", Spec{Preset: "paper-baseline", Fields: map[string]float64{"nodes": math.NaN()}}, "not finite"},
		{"inf field", Spec{Preset: "paper-baseline", Fields: map[string]float64{"w": math.Inf(1)}}, "not finite"},
		{"overflow field", Spec{Preset: "paper-baseline", Fields: map[string]float64{"nodes": 1e300}}, "out of range"},
		{"fractional int field", Spec{Preset: "paper-baseline", Fields: map[string]float64{"nodes": 4.5}}, `field "nodes" takes whole numbers`},
		{"node cap", Spec{Preset: "paper-baseline", Fields: map[string]float64{"nodes": 1e5}}, "node cap"},
		{"memory cap", Spec{Preset: "machine-gups", Fields: map[string]float64{"memwords": 1 << 24}}, "word cap"},
		{"total memory cap", Spec{Preset: "machine-gups-256", Fields: map[string]float64{"memwords": 1 << 19}}, "total cap"},
		{"updates cap", Spec{Preset: "machine-gups", Fields: map[string]float64{"updates": 1 << 24}}, "cap"},
		{"negative reps", Spec{Preset: "paper-baseline", Replications: -1}, "replications"},
		{"reps cap", Spec{Preset: "paper-baseline", Replications: 1000}, "replications"},
		{"negative timeout", Spec{Preset: "paper-baseline", TimeoutMS: -5}, "timeout_ms"},
		{"huge timeout", Spec{Preset: "paper-baseline", TimeoutMS: 1 << 40}, "timeout_ms"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.sp.Resolve(lim); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Resolve err = %v, want %q", err, c.wantErr)
			}
		})
	}
}

func TestDefaultLimitsAdmitEveryPreset(t *testing.T) {
	// The serving defaults must never reject a named preset as shipped.
	lim := DefaultSpecLimits()
	for _, s := range Presets() {
		if _, err := (Spec{Preset: s.Name}).Resolve(lim); err != nil {
			t.Errorf("preset %s rejected by default limits: %v", s.Name, err)
		}
	}
}

func TestZeroLimitsAreUnlimited(t *testing.T) {
	sp := Spec{Preset: "paper-baseline", Fields: map[string]float64{"nodes": 1e6}, Replications: 500}
	if _, err := sp.Resolve(SpecLimits{}); err != nil {
		t.Fatalf("zero limits rejected: %v", err)
	}
}

func TestResolvedKey(t *testing.T) {
	lim := DefaultSpecLimits()
	a, err := Spec{Preset: "machine-gups", Fields: map[string]float64{"nodes": 16, "updates": 32}, Seed: 1}.Resolve(lim)
	if err != nil {
		t.Fatal(err)
	}
	// Same overrides, different map construction order: same key.
	b, err := Spec{Preset: "machine-gups", Fields: map[string]float64{"updates": 32, "nodes": 16}, Seed: 1}.Resolve(lim)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("equivalent specs got different keys:\n%s\n%s", a.Key(), b.Key())
	}
	// Any run-shaping difference must change the key.
	variants := []Spec{
		{Preset: "machine-gups", Fields: map[string]float64{"nodes": 16, "updates": 32}, Seed: 2},
		{Preset: "machine-gups", Fields: map[string]float64{"nodes": 16, "updates": 64}, Seed: 1},
		{Preset: "machine-gups", Fields: map[string]float64{"nodes": 16, "updates": 32}, Seed: 1, Quick: true},
		{Preset: "machine-gups", Fields: map[string]float64{"nodes": 16, "updates": 32}, Seed: 1, Replications: 2},
	}
	for i, sp := range variants {
		v, err := sp.Resolve(lim)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if v.Key() == a.Key() {
			t.Errorf("variant %d collides with the base key", i)
		}
	}
	// The timeout must NOT change the key (deadlines never change results).
	c, err := Spec{Preset: "machine-gups", Fields: map[string]float64{"nodes": 16, "updates": 32}, Seed: 1, TimeoutMS: 123}.Resolve(lim)
	if err != nil {
		t.Fatal(err)
	}
	if c.Key() != a.Key() {
		t.Error("timeout leaked into the run key")
	}
}

func TestResolvedSpecRuns(t *testing.T) {
	// End to end: a resolved machine spec actually executes on its backend.
	r, err := Spec{Preset: "machine-gups", Fields: map[string]float64{"nodes": 4, "updates": 8}, Quick: true}.
		Resolve(DefaultSpecLimits())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(r.Scenario, r.Backend, Config{Seed: r.Seed, Quick: r.Quick})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics[MetricTotal] <= 0 {
		t.Errorf("no cycles reported: %+v", res.Metrics)
	}
}
