package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/network"
)

// Field is one numerically sweepable scenario knob, addressable by name —
// the hook pimsweep's one sweep path uses to sweep design-space axes
// without per-field code. Every pimsweep subcommand sweeps fields: the
// scenario subcommand takes them by name, and the hostpim and parcelsys
// aliases map their flags onto fields of the paper-baseline and
// fig11-point presets. The same names key Spec.Fields.
type Field struct {
	// Name is the sweep-axis name (lower-case, no spaces).
	Name string
	// About describes the knob for CLI listings.
	About string
	// Int marks a field that takes whole numbers only; SetField rejects
	// a fractional value for it.
	Int bool
	// Set writes the value into the scenario; boolean fields treat any
	// non-zero value as true.
	Set func(*Scenario, float64)
	// Get reads the current value.
	Get func(Scenario) float64
}

// fields is the registry, in presentation order.
var fields = []Field{
	{"pctwl", "low-locality work fraction %WL (0..1)", false,
		func(s *Scenario, v float64) { s.Workload.PctWL = v },
		func(s Scenario) float64 { return s.Workload.PctWL }},
	{"nodes", "PIM node count N", true,
		func(s *Scenario, v float64) { s.Machine.N = int(v) },
		func(s Scenario) float64 { return float64(s.Machine.N) }},
	{"w", "total work in operations", false,
		func(s *Scenario, v float64) { s.Workload.W = v },
		func(s Scenario) float64 { return s.Workload.W }},
	{"mixls", "load/store instruction-mix fraction", false,
		func(s *Scenario, v float64) { s.Workload.MixLS = v },
		func(s Scenario) float64 { return s.Workload.MixLS }},
	{"remote", "remote fraction of PIM memory accesses", false,
		func(s *Scenario, v float64) { s.Workload.RemoteFrac = v },
		func(s Scenario) float64 { return s.Workload.RemoteFrac }},
	{"latency", "one-way inter-PIM latency (cycles)", false,
		func(s *Scenario, v float64) { s.Machine.Latency = v },
		func(s Scenario) float64 { return s.Machine.Latency }},
	{"parallelism", "parcels/threads per PIM node", true,
		func(s *Scenario, v float64) { s.Workload.Parallelism = int(v) },
		func(s Scenario) float64 { return float64(s.Workload.Parallelism) }},
	{"horizon", "parcel-study simulated cycles", false,
		func(s *Scenario, v float64) { s.Workload.Horizon = v },
		func(s Scenario) float64 { return s.Workload.Horizon }},
	{"memcycles", "parcel-node local memory access time (cycles)", false,
		func(s *Scenario, v float64) { s.Machine.MemCycles = v },
		func(s Scenario) float64 { return s.Machine.MemCycles }},
	{"pmiss", "HWP cache miss rate on high-locality work", false,
		func(s *Scenario, v float64) { s.Machine.Pmiss = v },
		func(s Scenario) float64 { return s.Machine.Pmiss }},
	{"pmisslow", "HWP miss rate on low-locality work (locality-aware control)", false,
		func(s *Scenario, v float64) { s.Machine.PmissLow = v },
		func(s Scenario) float64 { return s.Machine.PmissLow }},
	{"tlcycle", "LWP cycle time (HWP cycles)", false,
		func(s *Scenario, v float64) { s.Machine.TLCycle = v },
		func(s Scenario) float64 { return s.Machine.TLCycle }},
	{"tmh", "HWP memory access time (cycles)", false,
		func(s *Scenario, v float64) { s.Machine.TMH = v },
		func(s Scenario) float64 { return s.Machine.TMH }},
	{"tch", "HWP cache access time (cycles)", false,
		func(s *Scenario, v float64) { s.Machine.TCH = v },
		func(s Scenario) float64 { return s.Machine.TCH }},
	{"tml", "LWP local memory access time (cycles)", false,
		func(s *Scenario, v float64) { s.Machine.TML = v },
		func(s Scenario) float64 { return s.Machine.TML }},
	{"kernelweight", "op-weight of the named kernel in the application mix", false,
		func(s *Scenario, v float64) { s.Workload.KernelWeight = v },
		func(s Scenario) float64 { return s.Workload.KernelWeight }},
	{"updates", "machine-program work per thread (updates/round trips/words)", true,
		func(s *Scenario, v float64) { s.Workload.Updates = int(v) },
		func(s Scenario) float64 { return float64(s.Workload.Updates) }},
	{"memwords", "per-node VM memory size in words (machine backend)", true,
		func(s *Scenario, v float64) { s.Machine.MemWords = int(v) },
		func(s Scenario) float64 { return float64(s.Machine.MemWords) }},
	{"spawncycles", "VM parcel-launch cost in cycles (machine backend)", false,
		func(s *Scenario, v float64) { s.Machine.SpawnCycles = v },
		func(s Scenario) float64 { return s.Machine.SpawnCycles }},
	{"runparallel", "workers for one run, 0/1 = serial (machine/sim backends; results identical for every value)", true,
		func(s *Scenario, v float64) { s.Machine.RunParallel = int(v) },
		func(s Scenario) float64 { return float64(s.Machine.RunParallel) }},
	{"pagepolicy", "VM DRAM timing: 0 = flat MemCycles, 1 = open page, 2 = closed page", true,
		func(s *Scenario, v float64) { s.Machine.PagePolicy = pagePolicyName(int(v)) },
		func(s Scenario) float64 { return float64(pagePolicyIndex(s.Machine.PagePolicy)) }},
	{"topology", "VM interconnect: 0 flat, 1 ring, 2 mesh, 3 torus, 4 hypercube", true,
		func(s *Scenario, v float64) { s.Machine.Topology = topologyName(int(v)) },
		func(s Scenario) float64 { return float64(topologyIndex(s.Machine.Topology)) }},
	{"faultdrop", "parcel drop probability per attempt, [0, 1) (machine backend)", false,
		func(s *Scenario, v float64) { s.Machine.FaultDrop = v },
		func(s Scenario) float64 { return s.Machine.FaultDrop }},
	{"faultcorrupt", "parcel corruption probability per attempt, [0, 1) (machine backend)", false,
		func(s *Scenario, v float64) { s.Machine.FaultCorrupt = v },
		func(s Scenario) float64 { return s.Machine.FaultCorrupt }},
	{"faultdup", "parcel duplication probability per attempt, [0, 1) (machine backend)", false,
		func(s *Scenario, v float64) { s.Machine.FaultDup = v },
		func(s Scenario) float64 { return s.Machine.FaultDup }},
	{"faultjitter", "max extra parcel delivery delay in cycles (machine backend)", false,
		func(s *Scenario, v float64) { s.Machine.FaultJitter = v },
		func(s Scenario) float64 { return s.Machine.FaultJitter }},
	{"straggler", "slow-node cost factor, 0/1 = off (machine backend)", false,
		func(s *Scenario, v float64) { s.Machine.Straggler = v },
		func(s Scenario) float64 { return s.Machine.Straggler }},
	{"faultseed", "fault-plan seed, 0 = derive from run seed (machine backend)", true,
		func(s *Scenario, v float64) { s.Machine.FaultSeed = uint64(v) },
		func(s Scenario) float64 { return float64(s.Machine.FaultSeed) }},
	{"overlap", "overlap HWP and LWP phases (non-zero = on)", false,
		func(s *Scenario, v float64) { s.Overlap = v != 0 },
		func(s Scenario) float64 { return b2f(s.Overlap) }},
	{"software", "software-only parcel overheads (non-zero = on)", false,
		func(s *Scenario, v float64) { s.Software = v != 0 },
		func(s Scenario) float64 { return b2f(s.Software) }},
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// pagePolicyName/Index map the numeric sweep axis onto the PagePolicy
// string (out-of-range values map to an invalid name so Validate rejects
// the point instead of silently running flat).
var pagePolicyNames = []string{"", "open", "closed"}

func pagePolicyName(i int) string {
	if i < 0 || i >= len(pagePolicyNames) {
		return fmt.Sprintf("pagepolicy(%d)", i)
	}
	return pagePolicyNames[i]
}

func pagePolicyIndex(name string) int {
	for i, n := range pagePolicyNames {
		if n == name {
			return i
		}
	}
	return -1
}

// topologyName/Index map the numeric sweep axis onto the Topology string
// (the flat-first order of network.TopologyNames).
var topologyNames = network.TopologyNames()

func topologyName(i int) string {
	if i < 0 || i >= len(topologyNames) {
		return fmt.Sprintf("topology(%d)", i)
	}
	return topologyNames[i]
}

func topologyIndex(name string) int {
	if name == "" {
		return 0
	}
	for i, n := range topologyNames {
		if n == name {
			return i
		}
	}
	return -1
}

// Fields returns the sweepable-field registry in presentation order.
func Fields() []Field { return fields }

// FieldNames returns all sweepable field names, sorted.
func FieldNames() []string {
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = f.Name
	}
	sort.Strings(out)
	return out
}

// SetField sets the named field; the resulting scenario is NOT validated
// (sweeps validate once per point at Run time). A fractional value for
// an integer field is an error rather than a silent truncation.
func SetField(s *Scenario, name string, v float64) error {
	for _, f := range fields {
		if f.Name == name {
			if f.Int && v != math.Trunc(v) {
				return fmt.Errorf("scenario: field %q takes whole numbers, got %g", name, v)
			}
			f.Set(s, v)
			return nil
		}
	}
	return fmt.Errorf("scenario: unknown field %q (known: %v)", name, FieldNames())
}

// GetField reads the named field.
func GetField(s Scenario, name string) (float64, error) {
	for _, f := range fields {
		if f.Name == name {
			return f.Get(s), nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown field %q (known: %v)", name, FieldNames())
}
