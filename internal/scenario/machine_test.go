package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// machinePresetNames lists the execution-driven presets.
func machinePresetNames(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, s := range Presets() {
		if s.Kind() == KindMachine {
			out = append(out, s.Name)
		}
	}
	if len(out) < 4 {
		t.Fatalf("want >= 4 machine presets, have %v", out)
	}
	return out
}

func TestMachinePresetsDeterministic(t *testing.T) {
	// Every machine preset is a pure function of (Scenario, Config):
	// identical metric maps across reruns, in quick and full mode.
	for _, name := range machinePresetNames(t) {
		s := MustFind(name)
		for _, quick := range []bool{true, false} {
			if !quick && testing.Short() {
				continue
			}
			cfg := Config{Seed: 2004, Quick: quick}
			r1, err := Run(s, "machine", cfg)
			if err != nil {
				t.Fatalf("%s quick=%v: %v", name, quick, err)
			}
			r2, err := Run(s, "machine", cfg)
			if err != nil {
				t.Fatalf("%s quick=%v: %v", name, quick, err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("%s quick=%v: metrics differ between identical runs:\n%v\nvs\n%v",
					name, quick, r1.Metrics, r2.Metrics)
			}
			if r1.Metrics[MetricTotal] <= 0 {
				t.Errorf("%s quick=%v: total = %g", name, quick, r1.Metrics[MetricTotal])
			}
			if eff := r1.Metrics[MetricEfficiency]; eff <= 0 || eff > 1 {
				t.Errorf("%s quick=%v: efficiency = %g", name, quick, eff)
			}
		}
	}
}

func TestMachinePingMatchesClosedFormExactly(t *testing.T) {
	// On the flat network the analytic counterpart is cycle-exact; the
	// preset pins the tolerance at 0.1%, so the diff must be ~zero.
	cfg := Config{Seed: 7}
	_, ags, err := CrossValidate(MustFind("machine-ping"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ags) == 0 {
		t.Fatal("no agreements between analytic and machine")
	}
	for _, a := range ags {
		if a.Diff != 0 {
			t.Errorf("%s: %s=%g vs %s=%g (diff %g, want exact)",
				a.Metric, a.A, a.ValA, a.B, a.ValB, a.Diff)
		}
		if !a.Pass {
			t.Errorf("%s disagrees: %+v", a.Metric, a)
		}
	}
}

func TestMachineValidatorCatchesTimingSkew(t *testing.T) {
	// Inject a timing skew the closed form deliberately ignores: route
	// the ping over a 16-node ring, so the 0<->8 flight pays 8 hops where
	// the flat model charges one latency. CrossValidate must fail.
	s := MustFind("machine-ping")
	s.Machine.Topology = "ring"
	results, ags, err := CrossValidate(s, Config{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("want analytic+machine, got %d results", len(results))
	}
	bad := Disagreements(ags)
	if len(bad) == 0 {
		t.Fatal("validator passed a ring-routed ping against the flat-network closed form")
	}
	// The machine total must exceed the flat prediction (8 hops > 1).
	var analytic, machine float64
	for _, r := range results {
		if r.Backend == "analytic" {
			analytic = r.Metrics[MetricTotal]
		}
		if r.Backend == "machine" {
			machine = r.Metrics[MetricTotal]
		}
	}
	if machine <= analytic {
		t.Errorf("ring ping total %g not above flat closed form %g", machine, analytic)
	}
}

func TestMachineTopologyOrdering(t *testing.T) {
	// For the 0 -> N/2 ping on 16 nodes: hypercube (1 hop on bit 3... 1
	// hop: 0^8 = one bit) beats mesh beats ring; all hop totals at the
	// same per-hop cost order by hop count.
	s := MustFind("machine-ping")
	cfg := Config{Seed: 1, Quick: true}
	total := func(topo string) float64 {
		sc := s
		sc.Machine.Topology = topo
		r, err := Run(sc, "machine", cfg)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		return r.Metrics[MetricTotal]
	}
	ring, mesh, cube := total("ring"), total("mesh"), total("hypercube")
	if !(cube < mesh && mesh < ring) {
		t.Errorf("hop totals out of order: hypercube %g, mesh %g, ring %g", cube, mesh, ring)
	}
}

func TestMachineDramPagePolicy(t *testing.T) {
	// The streaming triad lives in the row buffer: open-page must see a
	// high hit rate and finish faster than closed-page, which pays an
	// activate on every access.
	s := MustFind("machine-dram")
	cfg := Config{Seed: 1, Quick: true}
	open, err := Run(s, "machine", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Machine.PagePolicy = "closed"
	closed, err := Run(s, "machine", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 2048-bit row holds four 8-word wide accesses: streaming hits 3 of
	// every 4 (the first access in each row activates it).
	if open.Metrics[MetricRowHit] != 0.75 {
		t.Errorf("streaming open-page hit rate = %g, want 0.75", open.Metrics[MetricRowHit])
	}
	if closed.Metrics[MetricRowHit] != 0 {
		t.Errorf("closed-page hit rate = %g, want 0", closed.Metrics[MetricRowHit])
	}
	if open.Metrics[MetricTotal] >= closed.Metrics[MetricTotal] {
		t.Errorf("open page (%g cycles) not faster than closed (%g)",
			open.Metrics[MetricTotal], closed.Metrics[MetricTotal])
	}
}

func TestMachineQuickClampsUpdates(t *testing.T) {
	s := MustFind("machine-gups")
	if got := s.effectiveUpdates(Config{Quick: true}); got != quickMaxUpdates {
		t.Errorf("quick updates = %d, want %d", got, quickMaxUpdates)
	}
	s.Workload.Updates = 8 // already below the clamp
	if got := s.effectiveUpdates(Config{Quick: true}); got != 8 {
		t.Errorf("quick updates = %d, want 8 (clamp must never raise)", got)
	}
	s.Workload.Updates = 0
	if got := s.effectiveUpdates(Config{}); got != 512 {
		t.Errorf("default gups updates = %d, want 512", got)
	}
}

func TestMachineMoreThreadsHideLatency(t *testing.T) {
	// GUPS cycles shrink (per update) as parallelism rises: the VM's
	// fine-grain multithreading covers the memory stalls.
	s := MustFind("machine-gups")
	cfg := Config{Seed: 3, Quick: true}
	perUpdate := func(par int) float64 {
		sc := s
		sc.Workload.Parallelism = par
		r, err := Run(sc, "machine", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Metrics[MetricCyclesPerUpdate]
	}
	if one, eight := perUpdate(1), perUpdate(8); eight >= one {
		t.Errorf("cycles/update did not drop with parallelism: 1 thread %g, 8 threads %g", one, eight)
	}
}

func TestMachineValidateRejects(t *testing.T) {
	base := MustFind("machine-gups")
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"unknown program", func(s *Scenario) { s.Workload.Program = "doom" }},
		{"zero parallelism", func(s *Scenario) { s.Workload.Parallelism = 0 }},
		{"negative updates", func(s *Scenario) { s.Workload.Updates = -1 }},
		{"remote frac set", func(s *Scenario) { s.Workload.RemoteFrac = 0.5 }},
		{"kernel set", func(s *Scenario) { s.Workload.Kernel = "gups" }},
		{"zero mem cycles", func(s *Scenario) { s.Machine.MemCycles = 0 }},
		{"negative mem words", func(s *Scenario) { s.Machine.MemWords = -1 }},
		{"negative spawn", func(s *Scenario) { s.Machine.SpawnCycles = -1 }},
		{"spawn rounds to zero", func(s *Scenario) { s.Machine.SpawnCycles = 0.2 }},
		{"unknown topology", func(s *Scenario) { s.Machine.Topology = "tokamak" }},
		{"mesh non-square", func(s *Scenario) { s.Machine.Topology = "mesh"; s.Machine.N = 10 }},
		{"hypercube non-pow2", func(s *Scenario) { s.Machine.Topology = "hypercube"; s.Machine.N = 12 }},
		{"unknown page policy", func(s *Scenario) { s.Machine.PagePolicy = "ajar" }},
		{"ping one node", func(s *Scenario) { s.Workload.Program = "ping"; s.Machine.N = 1 }},
		{"negative run parallel", func(s *Scenario) { s.Machine.RunParallel = -2 }},
	}
	for _, c := range cases {
		s := base
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid machine scenario", c.name)
		}
	}
}

func TestMachineFieldsSweepPrograms(t *testing.T) {
	// The sweepable fields must reach the machine knobs: drive a preset
	// through SetField exactly as pimsweep scenario -sweep does.
	s := MustFind("machine-dram")
	for _, c := range []struct {
		field string
		v     float64
	}{
		{"updates", 64}, {"pagepolicy", 2}, {"spawncycles", 10}, {"memwords", 40000},
		{"runparallel", 3},
	} {
		if err := SetField(&s, c.field, c.v); err != nil {
			t.Fatalf("%s: %v", c.field, err)
		}
	}
	if s.Machine.PagePolicy != "closed" || s.Workload.Updates != 64 ||
		s.Machine.SpawnCycles != 10 || s.Machine.MemWords != 40000 ||
		s.Machine.RunParallel != 3 {
		t.Errorf("fields not applied: %+v %+v", s.Machine, s.Workload)
	}
	if _, err := Run(s, "machine", Config{Seed: 1, Quick: true}); err != nil {
		t.Fatal(err)
	}
	// Out-of-range enum values must be rejected at Validate, not run flat.
	bad := MustFind("machine-gups")
	if err := SetField(&bad, "pagepolicy", 9); err != nil {
		t.Fatal(err)
	}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "page policy") {
		t.Errorf("pagepolicy=9 validated: %v", err)
	}
	bad = MustFind("machine-gups")
	if err := SetField(&bad, "topology", -3); err != nil {
		t.Fatal(err)
	}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "topology") {
		t.Errorf("topology=-3 validated: %v", err)
	}
}

func TestMachineTreesumVerifiesSum(t *testing.T) {
	// The treesum run self-checks the reduced total against the staged
	// data; a passing run proves parcels, vsum, and AMO-adds all landed.
	r, err := Run(MustFind("machine-treesum"), "machine", Config{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics[MetricSpawns] < 8 {
		t.Errorf("spawns = %g, want >= one worker per node", r.Metrics[MetricSpawns])
	}
}

func TestMachineSubCycleMemRejectedEarly(t *testing.T) {
	s := MustFind("machine-gups")
	s.Machine.MemCycles = 0.4
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "rounds below one") {
		t.Errorf("MemCycles=0.4 not rejected at Validate: %v", err)
	}
	s.Machine.MemCycles = 0.6 // rounds to 1: fine
	if err := s.Validate(); err != nil {
		t.Errorf("MemCycles=0.6 rejected: %v", err)
	}
}

func TestMachineRunParallelInvariant(t *testing.T) {
	// Per-run parallelism is a pure execution strategy: every machine
	// preset produces the identical metric map for any worker count,
	// serial included — the scenario-level face of the VM's conservative
	// time-windowed PDES guarantee.
	for _, name := range machinePresetNames(t) {
		s := MustFind(name)
		cfg := Config{Seed: 2004, Quick: true}
		baseline := s
		baseline.Machine.RunParallel = 0
		want, err := Run(baseline, "machine", cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, p := range []int{1, 4, 7} {
			sc := s
			sc.Machine.RunParallel = p
			got, err := Run(sc, "machine", cfg)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Errorf("%s: RunParallel=%d leaks into metrics:\nserial:   %v\nparallel: %v",
					name, p, want.Metrics, got.Metrics)
			}
		}
	}
}

// TestMachineMetricsGolden pins every machine preset, swept across
// interconnect topologies and DRAM page policies, to the FNV-64a hash of
// its metric map at seed 2004 in quick mode — the values the VM produced
// before its execution paths were merged into one, so any change to the
// VM's schedule, counters or memory shows up here.
func TestMachineMetricsGolden(t *testing.T) {
	golden := []struct {
		preset, topo, policy string
		hash                 uint64
	}{
		{"machine-gups", "", "", 0x439f5320f7b62cd0},
		{"machine-gups", "", "closed", 0x9e8170103f1b8165},
		{"machine-gups", "ring", "", 0x439f5320f7b62cd0},
		{"machine-gups", "ring", "closed", 0x9e8170103f1b8165},
		{"machine-treesum", "", "", 0x23b3ebde4dcf432a},
		{"machine-treesum", "", "closed", 0x7f6b419a6944a488},
		{"machine-treesum", "ring", "", 0xde4697f2ab6b4e92},
		{"machine-treesum", "ring", "closed", 0xb0c63e23221854c1},
		{"machine-ping", "", "", 0x6d108327d7c8e743},
		{"machine-ping", "", "closed", 0x586cc3d5519897be},
		{"machine-ping", "ring", "", 0x3169591e2f62539f},
		{"machine-ping", "ring", "closed", 0x3ab5ea9805e79ac4},
		{"machine-gups-256", "", "", 0xd52ea8e30a732238},
		{"machine-gups-256", "", "closed", 0x48a7afdae26ff3e5},
		{"machine-gups-256", "ring", "", 0xd52ea8e30a732238},
		{"machine-gups-256", "ring", "closed", 0x48a7afdae26ff3e5},
		{"machine-dram", "", "", 0xf0db88f8496e8f51},
		{"machine-dram", "", "closed", 0xc82ece2370470d29},
		{"machine-dram", "ring", "", 0xf0db88f8496e8f51},
		{"machine-dram", "ring", "closed", 0xc82ece2370470d29},
		{"machine-treesum-faults", "", "", 0xf01418d44800c5c8},
		{"machine-treesum-faults", "", "closed", 0x75ac70cfa5e1c97d},
		{"machine-treesum-faults", "ring", "", 0x590a192e7bf04a03},
		{"machine-treesum-faults", "ring", "closed", 0xa6f25c447b47fcda},
		{"machine-gups-straggler", "", "", 0x6f48dfbc73d23161},
		{"machine-gups-straggler", "", "closed", 0xde5fe6c36f27dcd0},
		{"machine-gups-straggler", "ring", "", 0x6f48dfbc73d23161},
		{"machine-gups-straggler", "ring", "closed", 0xde5fe6c36f27dcd0},
	}
	if got, want := len(golden), 4*len(machinePresetNames(t)); got != want {
		t.Fatalf("%d golden cases for %d presets x 2 topologies x 2 policies", got, want/4)
	}
	for _, g := range golden {
		s := MustFind(g.preset)
		s.Machine.Topology = g.topo
		s.Machine.PagePolicy = g.policy
		r, err := Run(s, "machine", Config{Seed: 2004, Quick: true})
		if err != nil {
			t.Fatalf("%s topo=%q policy=%q: %v", g.preset, g.topo, g.policy, err)
		}
		if got := metricHash(r.Metrics); got != g.hash {
			t.Errorf("%s topo=%q policy=%q: metric hash %#016x, want %#016x\nmetrics: %v",
				g.preset, g.topo, g.policy, got, g.hash, r.Metrics)
		}
	}
}

// metricHash is the FNV-64a hash of a metric map: each name and the bits
// of its value, in name order.
func metricHash(m map[string]float64) uint64 {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, k := range names {
		fmt.Fprintf(h, "%s=%016x\n", k, math.Float64bits(m[k]))
	}
	return h.Sum64()
}
