package scenario

import (
	"fmt"
	"sort"

	"repro/internal/hostpim"
)

// table1Machine is the paper's Table 1 machine with the study-2 PIM-node
// memory time and no interconnect (scenarios that communicate set Latency).
func table1Machine() Machine {
	return Machine{
		N:         1,
		TLCycle:   5,
		TMH:       90,
		TCH:       2,
		TML:       30,
		Pmiss:     0.1,
		PmissLow:  1.0,
		MemCycles: 10,
	}
}

// table1Workload is the study-1 workload at the paper's full scale.
func table1Workload() Workload {
	return Workload{W: 100e6, MixLS: 0.30}
}

// study1Scenario builds a study-1 preset with the paper's locality-aware
// control (the Fig. 5 normalization).
func study1Scenario(name, about string, pctWL float64, n int) Scenario {
	s := Scenario{
		Name: name, About: about,
		Machine: table1Machine(), Workload: table1Workload(),
		Control: hostpim.ControlLocalityAware,
	}
	s.Workload.PctWL = pctWL
	s.Machine.N = n
	return s
}

// parcelScenario builds a study-2 preset.
func parcelScenario(name, about string, nodes, par int, remote, latency, horizon float64) Scenario {
	s := Scenario{Name: name, About: about, Machine: table1Machine(), Workload: table1Workload()}
	s.Workload.W = 0 // pure communication study: no host phase
	s.Machine.N = nodes
	s.Workload.Parallelism = par
	s.Workload.RemoteFrac = remote
	s.Machine.Latency = latency
	s.Workload.Horizon = horizon
	return s
}

// hybridScenario builds a composition preset with widened tolerances: the
// closed forms and the calibrated simulation legitimately diverge on the
// composed totals (the repo's combined experiment brackets them at 20%),
// and below saturation the Saavedra-Barrera efficiency is an idealization
// that ignores parcel-queue imbalance across nodes — the paper invokes it
// qualitatively (§5.2) — sitting up to ~0.2 above the DES and MVA models,
// which agree with each other to a few points.
func hybridScenario(name, about string, pctWL float64, n, par int, remote, latency, horizon float64) Scenario {
	s := study1Scenario(name, about, pctWL, n)
	s.Workload.Parallelism = par
	s.Workload.RemoteFrac = remote
	s.Machine.Latency = latency
	s.Workload.Horizon = horizon
	s.Tol = map[string]float64{
		MetricGain:       0.20,
		MetricTotal:      0.20,
		MetricRelative:   0.20,
		MetricEfficiency: 0.30,
		MetricTestIdle:   0.30,
	}
	return s
}

// machineScenario builds an execution-driven preset: the named ISA
// program on an n-node VM with the Table-1-derived LWP timing (memory 6
// cycles, hardware-assisted spawn) and a flat interconnect.
func machineScenario(name, about, program string, n, par, updates int, latency float64) Scenario {
	s := Scenario{Name: name, About: about, Machine: table1Machine(), Workload: table1Workload()}
	s.Machine.N = n
	s.Machine.MemCycles = 6
	s.Machine.Latency = latency
	s.Workload.Program = program
	s.Workload.Parallelism = par
	s.Workload.Updates = updates
	return s
}

// kernelScenario builds a preset whose workload parameters are fitted from
// a named internal/workload kernel.
func kernelScenario(kernel string, n int, weight float64) Scenario {
	s := study1Scenario("kernel-"+kernel, "fitted from the "+kernel+" kernel: "+kernelAbouts[kernel], 0, n)
	s.Workload.Kernel = kernel
	s.Workload.KernelWeight = weight
	return s
}

// presets holds all named scenarios in presentation order.
var presets = []Scenario{
	study1Scenario("paper-baseline",
		"Table 1 point: half the work is low-locality, 32 PIM nodes", 0.5, 32),
	study1Scenario("paper-extreme",
		"the text's ~100X regime: all work low-locality on 256 nodes", 1.0, 256),
	func() Scenario {
		s := study1Scenario("balanced-overlap",
			"HWP and LWP phases overlapped near the balance point (N=16)", 0.84, 16)
		s.Overlap = true
		return s
	}(),
	study1Scenario("scale-1k",
		"scale-out: 1024 PIM nodes carrying 90% of the work", 0.9, 1024),
	parcelScenario("fig11-point",
		"the Fig. 11/12 reproduction point: 16 nodes, 4 parcels, 200-cycle latency",
		16, 4, 0.3, 200, 200000),
	parcelScenario("latency-extreme",
		"deep latency regime: 5000-cycle interconnect hidden by 32 parcels",
		16, 32, 0.5, 5000, 100000),
	parcelScenario("latency-low",
		"short-latency regime where parcels barely pay for themselves",
		16, 2, 0.3, 10, 100000),
	func() Scenario {
		s := parcelScenario("parcel-software",
			"software-only parcel overheads (the A2 cost point)",
			16, 8, 0.5, 200, 100000)
		s.Software = true
		return s
	}(),
	parcelScenario("parcel-scale-256",
		"scale-out communication: 256 nodes, 8 parcels, 500-cycle latency",
		256, 8, 0.4, 500, 20000),
	func() Scenario {
		s := parcelScenario("parcel-scale-1k",
			"the DES big run: 1024 nodes, 8 parcels, 500-cycle latency, systems side by side",
			1024, 8, 0.4, 500, 20000)
		// The sim backend's parallel run (machine-gups-256 is the VM
		// counterpart): parcelsys runs its two systems side by side, one
		// kernel each, with the metrics identical for every worker count.
		// Values above 2 add nothing; 4 is kept so the preset's spec,
		// and with it every cache key that hashes it, stays as it was.
		s.Machine.RunParallel = 4
		return s
	}(),
	hybridScenario("hybrid-baseline",
		"study 1 under study-2 communication: 30% remote, 200 cycles, 4 parcels",
		0.5, 32, 4, 0.3, 200, 40000),
	hybridScenario("hybrid-saturated",
		"deep-latency hybrid saturated by 64 parcels per node",
		0.5, 32, 64, 0.3, 2000, 40000),
	kernelScenario("stream", 32, 0.6),
	kernelScenario("gups", 32, 0.6),
	kernelScenario("pointer-chase", 32, 0.6),
	kernelScenario("stencil", 32, 0.6),
	kernelScenario("histogram", 32, 0.6),
	machineScenario("machine-gups",
		"execution-driven GUPS: LCG random updates, 16 VM nodes x 4 threads",
		"gups", 16, 4, 512, 200),
	machineScenario("machine-treesum",
		"parcel-fanout tree sum in PIM assembly across 8 VM nodes",
		"treesum", 8, 1, 256, 200),
	func() Scenario {
		s := machineScenario("machine-ping",
			"flat-network parcel ping 0<->8: exact closed form cross-validates the VM",
			"ping", 16, 1, 64, 200)
		// The analytic counterpart is cycle-exact on the flat network, so
		// pin the agreement tight: any VM timing drift must trip it.
		s.Tol = map[string]float64{MetricTotal: 0.001}
		return s
	}(),
	func() Scenario {
		s := machineScenario("machine-gups-256",
			"the big run: GUPS on 256 VM nodes x 4 threads over a 16x16 torus",
			"gups", 256, 4, 128, 20)
		s.Machine.Topology = "torus"
		// The parallel showcase: partitioned across 4 workers, with the
		// conservative windows keeping the metrics byte-identical to a
		// serial run (RunParallel 0) of the same point.
		s.Machine.RunParallel = 4
		return s
	}(),
	func() Scenario {
		s := machineScenario("machine-dram",
			"wide-word stream triad over per-node DRAM row-buffer timing (open page)",
			"triad", 4, 1, 1024, 200)
		s.Machine.MemWords = 32768
		s.Machine.PagePolicy = "open"
		return s
	}(),
	func() Scenario {
		s := machineScenario("machine-treesum-faults",
			"tree sum on a lossy interconnect: 12% drop, 6% corrupt, 10% dup, jitter, reliable retransmit",
			"treesum", 16, 1, 256, 200)
		s.Machine.FaultDrop = 0.12
		s.Machine.FaultCorrupt = 0.06
		s.Machine.FaultDup = 0.10
		s.Machine.FaultJitter = 8
		// A fixed plan seed keeps the preset's faults (and so its
		// degraded metrics) identical across replications and sweeps;
		// sweep faultseed to explore other draws.
		s.Machine.FaultSeed = 0x9142
		return s
	}(),
	func() Scenario {
		s := machineScenario("machine-gups-straggler",
			"GUPS with a deterministic quarter of the nodes slowed 3x (straggler plan)",
			"gups", 16, 4, 256, 200)
		s.Machine.Straggler = 3
		s.Machine.FaultSeed = 0x9142
		return s
	}(),
}

// Presets returns all named scenarios in presentation order. The slice is
// shared; treat it as read-only (Scenario values are copied on use).
func Presets() []Scenario { return presets }

// PresetNames returns the preset names in presentation order.
func PresetNames() []string {
	out := make([]string, len(presets))
	for i, s := range presets {
		out[i] = s.Name
	}
	return out
}

// Find returns the named preset by value.
func Find(name string) (Scenario, error) {
	for _, s := range presets {
		if s.Name == name {
			return s, nil
		}
	}
	known := append([]string(nil), PresetNames()...)
	sort.Strings(known)
	return Scenario{}, fmt.Errorf("scenario: unknown preset %q (known: %v)", name, known)
}

// MustFind is Find for static preset names; it panics on unknown names.
func MustFind(name string) Scenario {
	s, err := Find(name)
	if err != nil {
		panic(err)
	}
	return s
}
