package scenario

import (
	"fmt"

	"repro/internal/hostpim"
	"repro/internal/hybrid"
	"repro/internal/parcelsys"
	"repro/internal/queueing"
)

// Backend runs scenarios on one model. Implementations are stateless and
// safe for concurrent use; every Run is deterministic given (Scenario,
// Config).
type Backend interface {
	// Name identifies the backend ("analytic", "queueing", "sim",
	// "hybrid", "machine").
	Name() string
	// Supports reports whether the backend's model covers the scenario.
	Supports(Scenario) bool
	// Run evaluates the scenario and returns the metrics the model
	// defines.
	Run(Scenario, Config) (Result, error)
}

// backends holds the registry in fixed presentation order.
var backends = []Backend{
	analyticBackend{},
	queueingBackend{},
	simBackend{},
	hybridBackend{},
	machineBackend{},
}

// BackendNames returns the backend names in presentation order.
func BackendNames() []string {
	out := make([]string, len(backends))
	for i, b := range backends {
		out[i] = b.Name()
	}
	return out
}

// FindBackend returns the named backend.
func FindBackend(name string) (Backend, error) {
	for _, b := range backends {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("scenario: unknown backend %q (known: %v)", name, BackendNames())
}

// Run is the one-call convenience: evaluate scenario s on the named
// backend. An invalid scenario fails with Validate's error, not as one
// the backend does not support.
func Run(s Scenario, backend string, cfg Config) (Result, error) {
	b, err := FindBackend(backend)
	if err != nil {
		return Result{}, err
	}
	if !b.Supports(s) {
		if err := s.Validate(); err != nil {
			return Result{}, err
		}
		return Result{}, fmt.Errorf("scenario: backend %s does not support scenario %s (%s)",
			b.Name(), s.Name, s.Kind())
	}
	return b.Run(s, cfg)
}

// SupportingBackends returns the backends that claim the scenario, in
// presentation order.
func SupportingBackends(s Scenario) []Backend {
	var out []Backend
	for _, b := range backends {
		if b.Supports(s) {
			out = append(out, b)
		}
	}
	return out
}

// --- analytic: the closed-form study-1 model (§3.1.2 equations). ---

type analyticBackend struct{}

func (analyticBackend) Name() string { return "analytic" }

// Supports: the closed form assumes perfectly partitioned LWP threads, so
// any scenario without inter-PIM communication qualifies. Of the
// execution-driven scenarios it claims exactly the ping program, whose
// round-trip chain has an exact closed form under the paper's
// flat-network, flat-memory assumption (machinePingAnalytic) — the claim
// deliberately ignores Topology/PagePolicy, so the cross-backend
// validator catches a VM whose real timing has drifted from the model.
func (analyticBackend) Supports(s Scenario) bool {
	if s.Validate() != nil {
		return false
	}
	if s.Kind() == KindMachine {
		return s.Workload.Program == "ping"
	}
	return s.Workload.RemoteFrac == 0
}

// analyticMemo caches the closed forms per parameter point: replicated
// engine runs and sweep grids re-evaluate identical points (the closed
// form is seed-independent), so each point is computed once.
var analyticMemo = newMemoCache[hostpim.Params, [3]float64](4096)

func (analyticBackend) Run(s Scenario, cfg Config) (Result, error) {
	if s.Kind() == KindMachine {
		return machinePingAnalytic(s, cfg)
	}
	p, err := s.HostParams(cfg)
	if err != nil {
		return Result{}, err
	}
	v, err := memoize(analyticMemo, p, func() ([3]float64, error) {
		r, err := hostpim.Analytic(p)
		if err != nil {
			return [3]float64{}, err
		}
		return [3]float64{r.Gain, r.Total, r.Relative}, nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Backend: "analytic", Metrics: map[string]float64{
		MetricGain:     v[0],
		MetricTotal:    v[1],
		MetricRelative: v[2],
	}}, nil
}

// --- queueing: exact MVA on the closed per-node network (§4's control
// and test systems as product-form networks). ---

type queueingBackend struct{}

func (queueingBackend) Name() string { return "queueing" }

// Supports: the MVA model covers communication scenarios — a closed
// network per node needs remote traffic and at least two nodes.
func (queueingBackend) Supports(s Scenario) bool {
	return s.Validate() == nil && s.Workload.RemoteFrac > 0 && s.Machine.N > 1
}

// mvaKey is the parameter point of one queueing-backend evaluation. The
// exact MVA recursion is O(stations × population) — worth remembering
// across the replicated sweeps that revisit identical grid points (the
// solve is seed-independent).
type mvaKey struct {
	nodes, parallelism        int
	remote, latency           float64
	mixMem, memCycles         float64
	createCycles, assimCycles float64
}

var mvaMemo = newMemoCache[mvaKey, [4]float64](4096)

// Run models both systems as closed single-class product-form networks
// over one memory-access cycle.
//
// Control: one customer per processor cycling through its node (useful
// ops plus the local memory visit), with the remote fraction adding a
// round-trip delay and a destination-memory visit the processor waits out
// idle — the paper's third processor state.
//
// Test: all N·Parallelism parcels circulate over the N node stations (a
// parcel runs wherever its data lives, so each access-cycle visits a
// uniformly chosen node) plus a one-way-latency delay on the remote
// fraction. Solving the whole N-station network — rather than one node
// with a pinned population — captures the migration imbalance that idles
// nodes whose parcel queue happens to run dry; exact MVA gives the
// throughput, hence per-node utilization, idle, and the Fig. 11 ratio.
func (queueingBackend) Run(s Scenario, cfg Config) (Result, error) {
	p, err := s.ParcelParams(cfg)
	if err != nil {
		return Result{}, err
	}
	key := mvaKey{
		nodes: p.Nodes, parallelism: p.Parallelism,
		remote: p.RemoteFrac, latency: p.Latency,
		mixMem: p.MixMem, memCycles: p.MemCycles,
		createCycles: p.Overhead.CreateCycles, assimCycles: p.Overhead.AssimilateCycles,
	}
	v, err := memoize(mvaMemo, key, func() ([4]float64, error) {
		eOps := (1 - p.MixMem) / p.MixMem // mean useful ops per memory access
		r := p.RemoteFrac
		busy := eOps + p.MemCycles
		ctrlCycle := busy + r*2*p.Latency
		ctrlIdle := r * (2*p.Latency + p.MemCycles) / ctrlCycle

		overhead := p.Overhead.CreateCycles + p.Overhead.AssimilateCycles
		demand := busy + r*overhead
		stations := make([]queueing.Station, p.Nodes+1)
		for i := 0; i < p.Nodes; i++ {
			stations[i] = queueing.Station{
				Name: "node", Kind: queueing.QueueingStation,
				Demand: demand / float64(p.Nodes),
			}
		}
		stations[p.Nodes] = queueing.Station{
			Name: "net", Kind: queueing.DelayStation, Demand: r * p.Latency,
		}
		mva, err := queueing.MVA(stations, p.Nodes*p.Parallelism)
		if err != nil {
			return [4]float64{}, err
		}
		util := mva.Utilizations[0] // per-node busy fraction (stations identical)
		if util > 1 {
			util = 1
		}
		perNode := mva.Throughput / float64(p.Nodes) // access-cycles per cycle per node
		return [4]float64{perNode * ctrlCycle, ctrlIdle, 1 - util, util}, nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Backend: "queueing", Metrics: map[string]float64{
		MetricRatio:      v[0],
		MetricCtrlIdle:   v[1],
		MetricTestIdle:   v[2],
		MetricEfficiency: v[3],
	}}, nil
}

// --- sim: the discrete-event path (hostpim's queuing simulation for
// study-1 scenarios, the parcelsys paired simulation for communication
// scenarios, and the parcelsys-calibrated composition for hybrids). ---

type simBackend struct{}

func (simBackend) Name() string { return "sim" }

// Supports: simulation is the reference model for every statistical
// scenario; execution-driven scenarios belong to the machine backend.
func (simBackend) Supports(s Scenario) bool {
	return s.Validate() == nil && s.Kind() != KindMachine
}

func (b simBackend) Run(s Scenario, cfg Config) (Result, error) {
	if s.Kind() == KindStudy1 {
		p, err := s.HostParams(cfg)
		if err != nil {
			return Result{}, err
		}
		r, err := hostpim.Simulate(p, hostpim.SimOptions{Seed: cfg.Seed})
		if err != nil {
			return Result{}, err
		}
		return Result{Backend: "sim", Metrics: map[string]float64{
			MetricGain:     r.Gain,
			MetricTotal:    r.Total,
			MetricRelative: r.Relative,
		}}, nil
	}

	p, err := s.ParcelParams(cfg)
	if err != nil {
		return Result{}, err
	}
	pr, err := parcelsys.Run(p)
	if err != nil {
		return Result{}, err
	}
	eff := 1 - pr.Test.IdleFrac
	metrics := map[string]float64{
		MetricRatio:      pr.Ratio,
		MetricCtrlIdle:   pr.Control.IdleFrac,
		MetricTestIdle:   pr.Test.IdleFrac,
		MetricEfficiency: eff,
	}
	if s.Kind() == KindHybrid {
		// Compose the study-1 closed form with the measured efficiency —
		// the simulation-calibrated counterpart of the hybrid backend.
		hp, err := s.HybridParams(cfg)
		if err != nil {
			return Result{}, err
		}
		base, err := hostpim.Analytic(hp.Host)
		if err != nil {
			return Result{}, err
		}
		hr := hybrid.Compose(base, hp, eff)
		metrics[MetricGain] = hr.Gain
		metrics[MetricTotal] = hr.Total
		metrics[MetricRelative] = hr.Relative
	}
	return Result{Backend: "sim", Metrics: metrics}, nil
}

// --- hybrid: the Saavedra-Barrera composition of the two studies. ---

type hybridBackend struct{}

func (hybridBackend) Name() string { return "hybrid" }

// Supports: the composition needs a host/PIM split and inter-PIM
// communication.
func (hybridBackend) Supports(s Scenario) bool {
	return s.Validate() == nil && s.Kind() == KindHybrid && s.Machine.N > 1
}

func (hybridBackend) Run(s Scenario, cfg Config) (Result, error) {
	p, err := s.HybridParams(cfg)
	if err != nil {
		return Result{}, err
	}
	r, err := hybrid.Analytic(p)
	if err != nil {
		return Result{}, err
	}
	return Result{Backend: "hybrid", Metrics: map[string]float64{
		MetricGain:       r.Gain,
		MetricTotal:      r.Total,
		MetricRelative:   r.Relative,
		MetricEfficiency: r.Efficiency,
	}}, nil
}
