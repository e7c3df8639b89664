package scenario

import (
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hostpim"
	"repro/internal/parcelsys"
)

func TestPresetsValidateAndAreUnique(t *testing.T) {
	if len(Presets()) < 10 {
		t.Fatalf("want >= 10 presets, have %d", len(Presets()))
	}
	seen := map[string]bool{}
	for _, s := range Presets() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate preset name %q", s.Name)
		}
		seen[s.Name] = true
		if s.About == "" {
			t.Errorf("%s: empty About", s.Name)
		}
	}
}

func TestFindPreset(t *testing.T) {
	s, err := Find("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload.PctWL != 0.5 || s.Machine.N != 32 {
		t.Errorf("paper-baseline = %%WL %g, N %d", s.Workload.PctWL, s.Machine.N)
	}
	if _, err := Find("no-such"); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Errorf("want unknown-preset error, got %v", err)
	}
}

func TestKindClassification(t *testing.T) {
	for name, want := range map[string]Kind{
		"paper-baseline":  KindStudy1,
		"fig11-point":     KindParcel,
		"hybrid-baseline": KindHybrid,
		"kernel-gups":     KindStudy1,
	} {
		if got := MustFind(name).Kind(); got != want {
			t.Errorf("%s: kind %v, want %v", name, got, want)
		}
	}
}

func TestBackendSupportsMatrix(t *testing.T) {
	// Each kind maps to a fixed backend set; sim supports every
	// statistical scenario, the machine backend every execution-driven
	// one (with the analytic closed form claiming the ping program too).
	want := map[Kind][]string{
		KindStudy1: {"analytic", "sim"},
		KindParcel: {"queueing", "sim"},
		KindHybrid: {"queueing", "sim", "hybrid"},
	}
	for _, s := range Presets() {
		expect := want[s.Kind()]
		if s.Kind() == KindMachine {
			expect = []string{"machine"}
			if s.Workload.Program == "ping" {
				expect = []string{"analytic", "machine"}
			}
		}
		var names []string
		for _, b := range SupportingBackends(s) {
			names = append(names, b.Name())
		}
		if !reflect.DeepEqual(names, expect) {
			t.Errorf("%s (%s): supporting backends %v, want %v", s.Name, s.Kind(), names, expect)
		}
	}
}

func TestHostParamsMatchesTable1(t *testing.T) {
	// The paper-baseline preset must map onto exactly the Table 1 default
	// parameter struct (with %WL and N applied): the studies rely on it.
	s := MustFind("paper-baseline")
	p, err := s.HostParams(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := hostpim.DefaultParams()
	want.PctWL = 0.5
	want.N = 32
	if p != want {
		t.Errorf("HostParams = %+v, want %+v", p, want)
	}
}

func TestParcelParamsMatchesStudy2Defaults(t *testing.T) {
	s := MustFind("fig11-point")
	p, err := s.ParcelParams(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := parcelsys.DefaultParams()
	want.Seed = 7
	if !reflect.DeepEqual(p, want) {
		t.Errorf("ParcelParams = %+v, want %+v", p, want)
	}
}

func TestParcelParamsHybridCycleMapping(t *testing.T) {
	// In a hybrid scenario the parcel workload is rescaled to HWP-cycle
	// units: the expected busy time between memory accesses must equal
	// the Saavedra-Barrera run-length term eOps·TLcycle, with MemCycles
	// equal to TML.
	s := MustFind("hybrid-baseline")
	p, err := s.ParcelParams(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eCycles := (1 - 0.3) / 0.3 * 5 // Table 1 mix and TLcycle
	gotE := (1 - p.MixMem) / p.MixMem
	if math.Abs(gotE-eCycles) > 1e-9 {
		t.Errorf("useful cycles per access = %g, want %g", gotE, eCycles)
	}
	if p.MemCycles != 30 {
		t.Errorf("MemCycles = %g, want TML = 30", p.MemCycles)
	}
}

func TestQuickClampsOnlyDown(t *testing.T) {
	s := MustFind("paper-baseline")
	p, err := s.HostParams(Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.W != quickMaxW {
		t.Errorf("quick W = %g, want %g", p.W, quickMaxW)
	}
	s.Workload.W = 5000 // already below the clamp
	p, err = s.HostParams(Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.W != 5000 {
		t.Errorf("quick W = %g, want 5000 (clamp must never raise)", p.W)
	}
}

func TestKernelFitting(t *testing.T) {
	cfg := Config{Seed: 2004, Quick: true}
	// Low-locality kernels land on the PIM array with the kernel's op
	// weight; high-locality kernels stay on the host with %WL = 0.
	for kernel, wantPIM := range map[string]bool{
		"stream":        true,
		"gups":          true,
		"pointer-chase": true,
		"stencil":       false,
		"histogram":     false,
	} {
		p, err := MustFind("kernel-" + kernel).HostParams(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
		if wantPIM && p.PctWL != 0.6 {
			t.Errorf("%s: PctWL = %g, want kernel weight 0.6", kernel, p.PctWL)
		}
		if !wantPIM && p.PctWL != 0 {
			t.Errorf("%s: PctWL = %g, want 0 (host-resident)", kernel, p.PctWL)
		}
	}
}

func TestUnknownKernelRejected(t *testing.T) {
	s := MustFind("paper-baseline")
	s.Workload.Kernel = "fibonacci"
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Errorf("want unknown-kernel error, got %v", err)
	}
}

func TestRunUnsupportedBackend(t *testing.T) {
	if _, err := Run(MustFind("paper-baseline"), "queueing", Config{Seed: 1}); err == nil {
		t.Error("queueing on a study-1 scenario must be rejected")
	}
	if _, err := Run(MustFind("paper-baseline"), "nope", Config{Seed: 1}); err == nil {
		t.Error("unknown backend must be rejected")
	}
}

func TestRunReportsValidationError(t *testing.T) {
	// An invalid point names its fault on every backend instead of
	// reading as a scenario the backend does not cover; a valid but
	// unclaimed scenario still gets the "does not support" error.
	s := MustFind("paper-baseline")
	s.Machine.N = 0
	for _, b := range BackendNames() {
		_, err := Run(s, b, Config{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "N = 0") {
			t.Errorf("%s: want the N = 0 validation error, got %v", b, err)
		}
	}
	_, err := Run(MustFind("paper-baseline"), "queueing", Config{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Errorf("queueing on a valid study-1 scenario: got %v", err)
	}
}

func TestAnalyticMatchesHostpimDirectly(t *testing.T) {
	s := MustFind("paper-baseline")
	r, err := Run(s, "analytic", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.HostParams(Config{Seed: 1})
	want, err := hostpim.Analytic(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics[MetricGain] != want.Gain || r.Metrics[MetricTotal] != want.Total {
		t.Errorf("analytic backend diverges from hostpim.Analytic: %+v vs %+v", r.Metrics, want)
	}
}

func TestCrossValidateAllPresetsQuick(t *testing.T) {
	cfg := Config{Seed: 2004, Quick: true}
	for _, s := range Presets() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			results, ags, err := CrossValidate(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Machine presets without an analytic counterpart run on the
			// machine backend alone: nothing to compare, nothing to fail.
			soloMachine := s.Kind() == KindMachine && s.Workload.Program != "ping"
			if !soloMachine {
				if len(results) < 2 {
					t.Fatalf("only %d supporting backends; cross-validation needs 2", len(results))
				}
				if len(ags) == 0 {
					t.Fatal("no shared checked metrics between supporting backends")
				}
			}
			for _, a := range Disagreements(ags) {
				t.Errorf("%s: %s %s=%.4g vs %s=%.4g diff %.4g > tol %.4g",
					s.Name, a.Metric, a.A, a.ValA, a.B, a.ValB, a.Diff, a.Tol)
			}
		})
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	cfg := Config{Seed: 99, Quick: true}
	for _, name := range []string{"fig11-point", "hybrid-baseline", "kernel-gups"} {
		s := MustFind(name)
		r1, a1, err := CrossValidate(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r2, a2, err := CrossValidate(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: results differ between identical runs", name)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Errorf("%s: agreements differ between identical runs", name)
		}
	}
}

func TestSetGetField(t *testing.T) {
	s := MustFind("fig11-point")
	if err := SetField(&s, "parallelism", 16); err != nil {
		t.Fatal(err)
	}
	if s.Workload.Parallelism != 16 {
		t.Errorf("parallelism = %d after SetField", s.Workload.Parallelism)
	}
	if err := SetField(&s, "overlap", 1); err != nil {
		t.Fatal(err)
	}
	if !s.Overlap {
		t.Error("overlap not set by non-zero value")
	}
	v, err := GetField(s, "latency")
	if err != nil || v != 200 {
		t.Errorf("GetField(latency) = %g, %v", v, err)
	}
	if err := SetField(&s, "warp-drive", 1); err == nil {
		t.Error("unknown field must be rejected")
	}
	// Every registered field must round-trip.
	for _, f := range Fields() {
		if err := SetField(&s, f.Name, f.Get(s)); err != nil {
			t.Errorf("field %s does not round-trip: %v", f.Name, err)
		}
	}
}

// TestSetFieldRejectsFractionalInts: an integer field refuses a
// fractional value, naming the field and leaving the scenario as it
// was, instead of truncating it; it takes whole values, and the other
// fields take fractions.
func TestSetFieldRejectsFractionalInts(t *testing.T) {
	want := []string{"faultseed", "memwords", "nodes", "pagepolicy", "parallelism", "runparallel", "topology", "updates"}
	var ints []string
	for _, f := range Fields() {
		s := MustFind("machine-gups")
		if !f.Int {
			if err := SetField(&s, f.Name, 0.5); err != nil {
				t.Errorf("real field %s refuses 0.5: %v", f.Name, err)
			}
			continue
		}
		ints = append(ints, f.Name)
		before := s
		for _, v := range []float64{4.5, -0.25, 1e-9} {
			err := SetField(&s, f.Name, v)
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(f.Name)) {
				t.Errorf("SetField(%s, %g) = %v, want an error naming the field", f.Name, v, err)
			}
		}
		if !reflect.DeepEqual(s, before) {
			t.Errorf("a refused %s value changed the scenario", f.Name)
		}
		if err := SetField(&s, f.Name, 2); err != nil {
			t.Errorf("SetField(%s, 2): %v", f.Name, err)
		}
	}
	sort.Strings(ints)
	if !reflect.DeepEqual(ints, want) {
		t.Errorf("integer fields %v, want %v", ints, want)
	}
}

func TestQueueingBackendSaturates(t *testing.T) {
	// With overwhelming parallelism the MVA utilization must approach 1
	// and the ratio must approach the saturation bound's neighbourhood.
	s := MustFind("latency-extreme")
	s.Workload.Parallelism = 512
	r, err := Run(s, "queueing", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics[MetricEfficiency] < 0.99 {
		t.Errorf("efficiency = %g at parallelism 512, want ~1", r.Metrics[MetricEfficiency])
	}
	if r.Metrics[MetricTestIdle] > 0.01 {
		t.Errorf("test idle = %g at parallelism 512", r.Metrics[MetricTestIdle])
	}
}

func TestValidateRejects(t *testing.T) {
	base := MustFind("fig11-point")
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"zero nodes", func(s *Scenario) { s.Machine.N = 0 }},
		{"negative latency", func(s *Scenario) { s.Machine.Latency = -1 }},
		{"pct out of range", func(s *Scenario) { s.Workload.PctWL = 1.5 }},
		{"zero parallelism with remote", func(s *Scenario) { s.Workload.Parallelism = 0 }},
		{"zero horizon with remote", func(s *Scenario) { s.Workload.Horizon = 0 }},
		{"zero mix", func(s *Scenario) { s.Workload.MixLS = 0 }},
		{"empty name", func(s *Scenario) { s.Name = "" }},
	}
	for _, c := range cases {
		s := base
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid scenario", c.name)
		}
	}
}

// TestTinyMixRunsOrErrs: a load/store mix so small that 1-mix rounds to
// 1 passes Validate, and every backend that claims it must then run it
// or fail with an error, never panic. The parcel systems once drew a
// negative segment length there and scheduled an event in the past.
func TestTinyMixRunsOrErrs(t *testing.T) {
	s := MustFind("fig11-point")
	if err := SetField(&s, "mixls", 1e-20); err != nil {
		t.Fatal(err)
	}
	s.Workload.Horizon = 5000
	if err := s.Validate(); err != nil {
		t.Fatalf("mixls 1e-20 no longer validates (%v); the test needs a spec that does", err)
	}
	for _, b := range SupportingBackends(s) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked: %v", b.Name(), r)
				}
			}()
			if _, err := Run(s, b.Name(), Config{Seed: 1}); err != nil {
				t.Logf("%s: %v", b.Name(), err)
			}
		}()
	}
}
