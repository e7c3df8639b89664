// Package scenario is the declarative layer above the models: one
// Scenario value describes a machine (hosts/PIMs, memory and interconnect
// timing, parallelism) plus a workload (%WL, instruction mix, remote
// fraction, or a named internal/workload kernel), and a Backend interface
// runs that same design point on every model that supports it — the
// closed-form analytic study-1 model, the MVA/queueing-theory model, the
// discrete-event parcel simulation, and the hybrid composition.
//
// The paper's whole argument rests on comparing the same machine/workload
// point across models (its §3.1.2 validates the analytic model against the
// Workbench simulation; its §5.2 explains the parcel results with the
// Saavedra-Barrera model). This package makes that comparison a first-class
// operation: presets name the paper's design points (and extensions), and
// CrossValidate runs one scenario on all supporting backends and checks
// agreement within stated tolerances.
package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cache"
	"repro/internal/hostpim"
	"repro/internal/hybrid"
	"repro/internal/parcel"
	"repro/internal/parcelsys"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Machine describes the hardware side of a design point. All times are in
// HWP cycles, following the paper's normalization.
type Machine struct {
	// N is the number of PIM (LWP) nodes.
	N int
	// TLCycle is the LWP cycle time in HWP cycles (Table 1: 5).
	TLCycle float64
	// TMH is the HWP main-memory access time on a cache miss (90).
	TMH float64
	// TCH is the HWP cache access time (2).
	TCH float64
	// TML is the LWP local memory access time (30).
	TML float64
	// Pmiss is the HWP cache miss rate on high-locality work (0.1).
	Pmiss float64
	// PmissLow is the HWP miss rate on low-locality work under the
	// locality-aware control policy (1.0).
	PmissLow float64
	// MemCycles is the local memory access time of a parcel-study node
	// (study 2's PIM-like 10 cycles). Only parcel scenarios use it;
	// hybrid scenarios use TML for the LWP phase instead. The machine
	// backend uses it as the VM's flat LD/ST/AMO cost in LWP cycles.
	MemCycles float64
	// Latency is the flat one-way inter-PIM latency in cycles. On a hop
	// Topology the machine backend reads it as the per-hop cost instead.
	Latency float64

	// The remaining fields parameterize the execution-driven machine
	// backend only (Workload.Program != "").

	// MemWords is the per-node memory size of the VM in 64-bit words
	// (0 = 16384).
	MemWords int
	// SpawnCycles is the VM's local parcel-launch cost (0 = the
	// hardware-assisted 2 cycles).
	SpawnCycles float64
	// Topology selects the VM's parcel interconnect: "" or "flat" is the
	// paper's fixed-delay network; "ring", "mesh", "torus", and
	// "hypercube" route parcels over internal/network hop topologies
	// with Latency cycles per hop. Mesh and torus need a square node
	// count, hypercube a power of two.
	Topology string
	// PagePolicy, when non-empty ("open" or "closed"), times every VM
	// memory operation through a per-node internal/dram row-buffer bank
	// instead of the flat MemCycles.
	PagePolicy string
	// RunParallel is the number of OS-level workers one run uses. On the
	// machine backend it is isa.Machine.Parallelism: the VM nodes are
	// partitioned and advanced in conservative lookahead windows, with
	// results byte-identical to the serial run for any value. On the sim
	// backend, from 2 on, parcelsys runs its two systems side by side,
	// one kernel and one goroutine each, and larger values add nothing;
	// 0 or 1 runs them one after the other. The results are bit-identical
	// for every value. hostpim's study-1 simulation runs no kernel and
	// ignores it.
	RunParallel int

	// The fault-injection knobs (machine scenarios only; see
	// internal/fault). When any of them is nonzero the run arms a
	// deterministic fault plan and the VM switches to its reliable
	// ack/timeout/retransmit delivery protocol, so programs complete
	// under loss and the run reports degraded-delivery metrics (drops,
	// retries, delivered, goodput). All six at zero is *structurally* a
	// fault-free run: no plan is built and the metrics are byte-identical
	// to a baseline that never heard of faults.

	// FaultDrop, FaultCorrupt, FaultDup are per-transmission-attempt
	// probabilities in [0, 1) of a parcel being dropped, corrupted (CRC-
	// rejected at the receiver), or duplicated.
	FaultDrop    float64
	FaultCorrupt float64
	FaultDup     float64
	// FaultJitter bounds per-attempt extra delivery delay, uniform in
	// [0, FaultJitter] cycles. Jitter only adds latency, so the parallel
	// executor's declared lookahead still holds.
	FaultJitter float64
	// Straggler, when >= 2 (rounded), slows a deterministic quarter of
	// the nodes by that factor on memory and spawn costs.
	Straggler float64
	// FaultSeed keys the fault plan; 0 derives a seed from the run's
	// Config.Seed, so replications see different fault draws.
	FaultSeed uint64
}

// Workload describes the work offered to the machine.
type Workload struct {
	// W is the total work in operations (study 1; Table 1: 100e6).
	W float64
	// PctWL is the low-temporal-locality fraction assigned to the PIM
	// array (0…1). Zero with RemoteFrac > 0 means a pure parcel-study
	// (study 2) scenario.
	PctWL float64
	// MixLS is the load/store fraction of the instruction mix (0.30).
	MixLS float64
	// RemoteFrac is the fraction of PIM memory accesses that reference
	// another PIM node (study 2's communication knob). Zero means the
	// paper's study-1 assumption of perfectly partitioned threads.
	RemoteFrac float64
	// Parallelism is the number of parcels/threads per PIM node.
	Parallelism int
	// Horizon is the simulated time for parcel-study runs, in cycles.
	Horizon float64
	// Kernel, when non-empty, derives PctWL/Pmiss/MixLS from a named
	// internal/workload kernel measured against a concrete cache instead
	// of taking them as givens. Known kernels: stream, gups,
	// pointer-chase, stencil, histogram.
	Kernel string
	// KernelWeight is the op-weight of Kernel in an application whose
	// remainder is host-resident work at the Table 1 miss rate
	// (0 means the default 0.6).
	KernelWeight float64
	// Program, when non-empty, makes this an execution-driven scenario:
	// the machine backend assembles and runs the named ISA program
	// (internal/isa) on the VM instead of evaluating a statistical
	// model. Known programs: gups, treesum, ping, triad.
	Program string
	// Updates is the program's per-thread work parameter: random updates
	// per thread (gups), round trips (ping), or vector words (treesum,
	// triad). Zero selects the program's default.
	Updates int
}

// Scenario is one fully described design point: a machine, a workload, and
// the execution-policy knobs the studies vary.
type Scenario struct {
	// Name identifies the scenario in registries, CLIs, and metrics.
	Name string
	// About is a one-line description for listings.
	About string

	Machine  Machine
	Workload Workload

	// Control selects the study-1 control-run cache policy.
	Control hostpim.ControlPolicy
	// Overlap runs the HWP and LWP phases concurrently instead of the
	// paper's strictly alternating flow.
	Overlap bool
	// Software uses software-only parcel overheads instead of the paper's
	// hardware-assisted cost point.
	Software bool

	// Tol overrides the validator's default cross-backend agreement
	// tolerance per metric. Useful where models legitimately diverge —
	// e.g. hybrid closed forms vs the calibrated simulation.
	Tol map[string]float64
}

// Config controls one backend run.
type Config struct {
	// Seed drives all stochastic draws; every backend is deterministic
	// given (Scenario, Config).
	Seed uint64
	// Quick shrinks workload sizes, horizons, and kernel measurements for
	// tests: W is clamped to 1e6 ops, Horizon to 20000 cycles.
	Quick bool
	// Cancel, when non-nil, is polled by long-running backends (today the
	// execution-driven machine backend); once it returns true the run
	// stops early with an error wrapping isa.ErrCanceled. It must be safe
	// to call concurrently.
	Cancel func() bool
}

// Quick-mode clamps (never raised, only lowered).
const (
	quickMaxW       = 1e6
	quickMaxHorizon = 20000
	quickMaxUpdates = 64
	measureOpsFull  = 200000
	measureOpsQuick = 40000
)

// Result is one backend's answer for a scenario: named metrics in the
// shared metric space (see the Metric* constants).
type Result struct {
	Backend string
	Metrics map[string]float64
}

// MetricKeys returns the result's metric names, sorted — iterate with this
// to keep rendered output deterministic.
func (r Result) MetricKeys() []string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Canonical metric names. Backends emit the subset that their model
// defines; CrossValidate compares the intersection.
const (
	// MetricGain is control time / test time (study 1, Fig. 5).
	MetricGain = "gain"
	// MetricTotal is the test system's total cycles.
	MetricTotal = "total"
	// MetricRelative is total normalized by the fixed-miss HWP-only time.
	MetricRelative = "relative"
	// MetricRatio is test ops / control ops (study 2, Fig. 11).
	MetricRatio = "ratio"
	// MetricCtrlIdle is the control system's mean idle fraction.
	MetricCtrlIdle = "ctrl_idle"
	// MetricTestIdle is the parcel system's mean idle fraction.
	MetricTestIdle = "test_idle"
	// MetricEfficiency is the PIM-node busy fraction during the LWP phase.
	MetricEfficiency = "efficiency"
)

// Kind classifies a scenario by which study's machinery it exercises.
type Kind int

// Scenario kinds.
const (
	// KindStudy1 is a host+PIM locality split with no inter-PIM
	// communication (the paper's first study).
	KindStudy1 Kind = iota
	// KindParcel is a pure communication study: no host phase, remote
	// accesses over the interconnect (the paper's second study).
	KindParcel
	// KindHybrid composes both: the LWP phase includes a remote-access
	// fraction over the PIM interconnect.
	KindHybrid
	// KindMachine is execution-driven: an assembled ISA program runs on
	// the multi-node VM (the machine backend) instead of a statistical
	// model being evaluated.
	KindMachine
)

func (k Kind) String() string {
	switch k {
	case KindStudy1:
		return "study1"
	case KindParcel:
		return "parcel"
	case KindHybrid:
		return "hybrid"
	case KindMachine:
		return "machine"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kind classifies the scenario from its workload fields.
func (s Scenario) Kind() Kind {
	if s.Workload.Program != "" {
		return KindMachine
	}
	if s.Workload.RemoteFrac > 0 {
		if s.Workload.PctWL > 0 || s.Workload.Kernel != "" {
			return KindHybrid
		}
		return KindParcel
	}
	return KindStudy1
}

// Validate checks the scenario for internal consistency.
func (s Scenario) Validate() error {
	m, w := s.Machine, s.Workload
	switch {
	case s.Name == "":
		return fmt.Errorf("scenario: empty name")
	case m.N <= 0:
		return fmt.Errorf("scenario %s: N = %d", s.Name, m.N)
	case m.TLCycle <= 0 || m.TMH <= 0 || m.TCH <= 0 || m.TML <= 0:
		return fmt.Errorf("scenario %s: non-positive machine timing", s.Name)
	case m.Pmiss < 0 || m.Pmiss > 1 || m.PmissLow < 0 || m.PmissLow > 1:
		return fmt.Errorf("scenario %s: miss rate out of [0,1]", s.Name)
	case m.Latency < 0:
		return fmt.Errorf("scenario %s: Latency = %g", s.Name, m.Latency)
	case w.PctWL < 0 || w.PctWL > 1:
		return fmt.Errorf("scenario %s: PctWL = %g", s.Name, w.PctWL)
	case w.MixLS <= 0 || w.MixLS > 1:
		return fmt.Errorf("scenario %s: MixLS = %g", s.Name, w.MixLS)
	case w.RemoteFrac < 0 || w.RemoteFrac > 1:
		return fmt.Errorf("scenario %s: RemoteFrac = %g", s.Name, w.RemoteFrac)
	case w.KernelWeight < 0 || w.KernelWeight > 1:
		return fmt.Errorf("scenario %s: KernelWeight = %g", s.Name, w.KernelWeight)
	}
	if w.Kernel != "" {
		if _, ok := kernelAbouts[w.Kernel]; !ok {
			return fmt.Errorf("scenario %s: unknown kernel %q (known: %v)",
				s.Name, w.Kernel, KernelNames())
		}
	}
	if s.Kind() == KindMachine {
		return s.validateMachine()
	}
	if m.FaultDrop != 0 || m.FaultCorrupt != 0 || m.FaultDup != 0 ||
		m.FaultJitter != 0 || m.Straggler != 0 || m.FaultSeed != 0 {
		return fmt.Errorf("scenario %s: fault-injection fields apply only to machine scenarios", s.Name)
	}
	if s.Kind() != KindParcel && w.W <= 0 {
		return fmt.Errorf("scenario %s: W = %g", s.Name, w.W)
	}
	if w.RemoteFrac > 0 {
		switch {
		case w.Parallelism <= 0:
			return fmt.Errorf("scenario %s: Parallelism = %d with remote accesses", s.Name, w.Parallelism)
		case w.Horizon <= 0:
			return fmt.Errorf("scenario %s: Horizon = %g with remote accesses", s.Name, w.Horizon)
		case s.Kind() == KindParcel && m.MemCycles <= 0:
			return fmt.Errorf("scenario %s: MemCycles = %g in a parcel scenario", s.Name, m.MemCycles)
		}
	}
	return nil
}

// Overhead returns the parcel cost model the scenario selects.
func (s Scenario) Overhead() parcel.CostModel {
	if s.Software {
		return parcel.SoftwareOnly()
	}
	return parcel.HardwareAssisted()
}

// effectiveW applies the quick-mode clamp.
func (s Scenario) effectiveW(cfg Config) float64 {
	if cfg.Quick && s.Workload.W > quickMaxW {
		return quickMaxW
	}
	return s.Workload.W
}

// effectiveHorizon applies the quick-mode clamp.
func (s Scenario) effectiveHorizon(cfg Config) float64 {
	if cfg.Quick && s.Workload.Horizon > quickMaxHorizon {
		return quickMaxHorizon
	}
	return s.Workload.Horizon
}

// effectiveUpdates resolves the machine-program work parameter: the
// program default when unset, quick-clamped (to a WideWords multiple, for
// the vector programs) in quick mode.
func (s Scenario) effectiveUpdates(cfg Config) int {
	u := s.Workload.Updates
	if u == 0 {
		u = machinePrograms[s.Workload.Program].defaultUpdates
	}
	if cfg.Quick && u > quickMaxUpdates {
		u = quickMaxUpdates
	}
	return u
}

// HostParams maps the scenario onto the study-1 parameter struct. Named
// kernels are measured against a concrete cache and folded into
// %WL/Pmiss/MixLS via workload.FitParams, closing the loop from concrete
// op stream to model point.
func (s Scenario) HostParams(cfg Config) (hostpim.Params, error) {
	if err := s.Validate(); err != nil {
		return hostpim.Params{}, err
	}
	p := hostpim.Params{
		W:        s.effectiveW(cfg),
		PctWL:    s.Workload.PctWL,
		N:        s.Machine.N,
		TLCycle:  s.Machine.TLCycle,
		TMH:      s.Machine.TMH,
		TCH:      s.Machine.TCH,
		TML:      s.Machine.TML,
		Pmiss:    s.Machine.Pmiss,
		PmissLow: s.Machine.PmissLow,
		MixLS:    s.Workload.MixLS,
		Control:  s.Control,
		Overlap:  s.Overlap,
	}
	if s.Workload.Kernel != "" {
		prof, err := s.measureKernel(cfg)
		if err != nil {
			return hostpim.Params{}, err
		}
		weight := s.Workload.KernelWeight
		if weight == 0 {
			weight = 0.6
		}
		// The application is the named kernel plus a host-resident
		// remainder at the Table 1 point; Partition classifies the kernel
		// by its measured miss rate, FitParams folds the mixture into the
		// model's %WL/Pmiss/MixLS.
		resident := workload.Profile{Kernel: "host-resident", MissRate: p.Pmiss, MixLS: p.MixLS}
		placements := workload.Partition([]workload.Profile{prof, resident})
		p, err = workload.FitParams(p, placements, []float64{weight, 1 - weight})
		if err != nil {
			return hostpim.Params{}, err
		}
	}
	return p, p.Validate()
}

// ParcelParams maps the scenario onto the study-2 parameter struct. For a
// hybrid scenario the LWP phase is expressed in HWP-cycle units: parcelsys
// operations cost one cycle each, so the instruction mix is rescaled so
// that the expected busy time between remote events matches the
// Saavedra-Barrera run length R = eOps·TLcycle + TML the hybrid closed
// form uses — the two backends then model the same phase.
func (s Scenario) ParcelParams(cfg Config) (parcelsys.Params, error) {
	if err := s.Validate(); err != nil {
		return parcelsys.Params{}, err
	}
	p := parcelsys.Params{
		Nodes:       s.Machine.N,
		Parallelism: s.Workload.Parallelism,
		RemoteFrac:  s.Workload.RemoteFrac,
		Latency:     s.Machine.Latency,
		Overhead:    s.Overhead(),
		Horizon:     s.effectiveHorizon(cfg),
		Seed:        cfg.Seed,
		RunParallel: s.Machine.RunParallel,
	}
	if s.Kind() == KindHybrid {
		// Useful cycles per memory access in HWP-cycle units.
		eCycles := (1 - s.Workload.MixLS) / s.Workload.MixLS * s.Machine.TLCycle
		p.MixMem = 1 / (1 + eCycles)
		p.MemCycles = s.Machine.TML
	} else {
		p.MixMem = s.Workload.MixLS
		p.MemCycles = s.Machine.MemCycles
	}
	return p, p.Validate()
}

// HybridParams maps the scenario onto the hybrid composition's parameters.
func (s Scenario) HybridParams(cfg Config) (hybrid.Params, error) {
	host, err := s.HostParams(cfg)
	if err != nil {
		return hybrid.Params{}, err
	}
	p := hybrid.Params{
		Host:           host,
		RemoteFrac:     s.Workload.RemoteFrac,
		Latency:        s.Machine.Latency,
		ThreadsPerNode: s.Workload.Parallelism,
		Overhead:       s.Overhead(),
	}
	return p, p.Validate()
}

// kernelAbouts names the known workload kernels.
var kernelAbouts = map[string]string{
	"stream":        "sequential array sweep, spatial locality only",
	"gups":          "random read-modify-write over a huge table",
	"pointer-chase": "dependent loads over a random permutation cycle",
	"stencil":       "5-point grid sweep with heavy reuse",
	"histogram":     "Zipf-skewed scatter into a small bucket table",
}

// KernelNames returns the known kernel names, sorted.
func KernelNames() []string {
	out := make([]string, 0, len(kernelAbouts))
	for k := range kernelAbouts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// measureKey identifies one kernel measurement; the drive is fully
// deterministic given (kernel, seed, quick).
type measureKey struct {
	kernel string
	seed   uint64
	quick  bool
}

// measureMemo caches kernel measurements — by far the most expensive step
// of a fitted-workload HostParams call (hundreds of thousands of cache
// accesses) and re-run identically by every backend, replicate, and sweep
// point that shares the scenario's kernel and seed.
var measureMemo = newMemoCache[measureKey, workload.Profile](256)

// measureKernel drives the named kernel through a concrete 32 KiB 4-way
// LRU cache and returns its measured profile.
func (s Scenario) measureKernel(cfg Config) (workload.Profile, error) {
	key := measureKey{kernel: s.Workload.Kernel, seed: cfg.Seed, quick: cfg.Quick}
	return memoize(measureMemo, key, func() (workload.Profile, error) {
		gen, err := newKernel(s.Workload.Kernel, rng.NewWithStream(cfg.Seed, 9001), cfg.Quick)
		if err != nil {
			return workload.Profile{}, err
		}
		ops := int64(measureOpsFull)
		if cfg.Quick {
			ops = measureOpsQuick
		}
		ccfg := cache.Config{SizeBytes: 32 * 1024, LineBytes: 64, Ways: 4, Policy: cache.LRU}
		return workload.Measure(gen, ccfg, nil, ops)
	})
}

// newKernel constructs a generator by name with deterministic geometry.
func newKernel(name string, st *rng.Stream, quick bool) (workload.Generator, error) {
	const mix = 0.3
	switch name {
	case "stream":
		return workload.NewStreamer(st, 1<<22, 64, mix), nil
	case "gups":
		return workload.NewGUPS(st, 1<<26, mix), nil
	case "pointer-chase":
		n := int64(1 << 14)
		if quick {
			n = 1 << 13
		}
		return workload.NewPointerChase(st, n, mix), nil
	case "stencil":
		return workload.NewStencil(st, 256, 256, mix), nil
	case "histogram":
		return workload.NewHistogram(st, 512, 1.1, mix), nil
	default:
		return nil, fmt.Errorf("scenario: unknown kernel %q (known: %v)", name, KernelNames())
	}
}

// relErr is the symmetric relative difference |a-b| / max(|a|,|b|).
func relErr(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}
