package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/rng"
)

// This file is the execution-driven backend: instead of evaluating a
// statistical model, it assembles a named ISA program (internal/isa),
// wires the VM's memory operations through internal/dram row-buffer
// timing and its parcels through an internal/network topology, and runs
// the multi-node interpreter to completion. The metrics come out of the
// machine's own counters — the paper's §2.2/§4.1 design point measured by
// executing it.

// Machine-backend metric names, alongside the canonical Metric* set
// (machine results reuse MetricTotal for cycles and MetricEfficiency for
// the mean node-busy fraction).
const (
	// MetricInstructions is the total executed instruction count.
	MetricInstructions = "instructions"
	// MetricIPC is instructions per node-cycle (issue-slot utilization).
	MetricIPC = "ipc"
	// MetricMemOps is the total LD/ST/AMO count.
	MetricMemOps = "mem_ops"
	// MetricSpawns is the total parcel-send count.
	MetricSpawns = "spawns"
	// MetricCyclesPerUpdate is cycles per unit of program work (GUPS
	// update, ping round trip, or wide-vector chunk).
	MetricCyclesPerUpdate = "cycles_per_update"
	// MetricRowHit is the DRAM row-buffer hit rate (PagePolicy scenarios
	// only).
	MetricRowHit = "row_hit"

	// Degraded-delivery metrics, present only when a fault plan is armed
	// (some Fault*/Straggler field nonzero), so fault-free metric maps
	// stay byte-identical to pre-fault baselines.

	// MetricDrops is the number of parcel transmission attempts lost or
	// CRC-rejected in the network.
	MetricDrops = "drops"
	// MetricRetries is the number of reliable-mode retransmissions.
	MetricRetries = "retries"
	// MetricDelivered is the number of parcels whose payload arrived.
	MetricDelivered = "delivered"
	// MetricGoodput is delivered parcels per transmission attempt,
	// delivered/(sent+retries): 1.0 on a clean network, degrading toward
	// 0 as loss forces retransmissions.
	MetricGoodput = "goodput"
)

// lwpCycleNS converts internal/dram nanosecond latencies into VM (LWP)
// cycles: Table 1 puts the LWP cycle at 5 HWP cycles with the HWP at
// ~1 GHz, so one LWP cycle is 5 ns. PaperMacro's 2 ns page access rounds
// up to 1 cycle (a row hit), a 22 ns activate+page to 5.
const lwpCycleNS = 5.0

// machineMaxCycles bounds every machine-backend run; a program that
// exceeds it (livelock, runaway sweep point) errors instead of hanging.
const machineMaxCycles = 100_000_000

// machineProgramInfo describes one runnable ISA program.
type machineProgramInfo struct {
	about          string
	defaultUpdates int
}

// machinePrograms names the programs the machine backend can run.
var machinePrograms = map[string]machineProgramInfo{
	"gups":    {"HPCC RandomAccess: LCG-indexed read-modify-writes, every node, every thread", 512},
	"treesum": {"parcel-fanout tree sum: SPAWN workers, vsum reduce, AMO-add partials home", 256},
	"ping":    {"one thread migrating node 0 <-> peer via SPAWN; exact closed-form total", 64},
	"triad":   {"row-buffer-wide streaming add C = A + B on every node", 1024},
}

// MachineProgramNames returns the known machine programs, sorted.
func MachineProgramNames() []string {
	out := make([]string, 0, len(machinePrograms))
	for k := range machinePrograms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// validateMachine checks the machine-kind-specific fields (called from
// Scenario.Validate once the shared machine-timing checks have passed).
func (s Scenario) validateMachine() error {
	m, w := s.Machine, s.Workload
	if _, ok := machinePrograms[w.Program]; !ok {
		return fmt.Errorf("scenario %s: unknown program %q (known: %v)",
			s.Name, w.Program, MachineProgramNames())
	}
	switch {
	case w.RemoteFrac != 0 || w.Kernel != "":
		return fmt.Errorf("scenario %s: machine scenarios take no RemoteFrac/Kernel", s.Name)
	case w.Parallelism <= 0:
		return fmt.Errorf("scenario %s: Parallelism = %d in a machine scenario", s.Name, w.Parallelism)
	case w.Updates < 0:
		return fmt.Errorf("scenario %s: Updates = %d", s.Name, w.Updates)
	case math.Round(m.MemCycles) < 1:
		// The VM takes whole cycles; a value that rounds to zero would
		// fail deep in NewMachine with an opaque timing error.
		return fmt.Errorf("scenario %s: MemCycles = %g rounds below one VM cycle", s.Name, m.MemCycles)
	case m.MemWords < 0:
		return fmt.Errorf("scenario %s: MemWords = %d", s.Name, m.MemWords)
	case m.SpawnCycles < 0:
		return fmt.Errorf("scenario %s: SpawnCycles = %g", s.Name, m.SpawnCycles)
	case m.SpawnCycles > 0 && math.Round(m.SpawnCycles) < 1:
		// Zero means "the hardware-assisted default"; a positive value
		// that rounds to zero would silently make spawns free instead.
		return fmt.Errorf("scenario %s: SpawnCycles = %g rounds below one VM cycle", s.Name, m.SpawnCycles)
	case m.RunParallel < 0:
		return fmt.Errorf("scenario %s: RunParallel = %d", s.Name, m.RunParallel)
	case m.FaultDrop < 0 || m.FaultDrop >= 1:
		// 1.0 is rejected: with every attempt dropped, even the
		// retransmit protocol can never deliver, so the run is a
		// guaranteed livelock rather than a degraded experiment.
		return fmt.Errorf("scenario %s: FaultDrop = %g out of [0, 1)", s.Name, m.FaultDrop)
	case m.FaultCorrupt < 0 || m.FaultCorrupt >= 1:
		return fmt.Errorf("scenario %s: FaultCorrupt = %g out of [0, 1)", s.Name, m.FaultCorrupt)
	case m.FaultDup < 0 || m.FaultDup >= 1:
		return fmt.Errorf("scenario %s: FaultDup = %g out of [0, 1)", s.Name, m.FaultDup)
	case m.FaultJitter < 0:
		return fmt.Errorf("scenario %s: FaultJitter = %g", s.Name, m.FaultJitter)
	case m.Straggler < 0:
		return fmt.Errorf("scenario %s: Straggler = %g", s.Name, m.Straggler)
	case m.Straggler > 0 && math.Round(m.Straggler) < 1:
		// Zero disables stragglers; a positive factor that rounds below
		// one would silently speed nodes up instead of slowing them.
		return fmt.Errorf("scenario %s: Straggler = %g rounds below one", s.Name, m.Straggler)
	}
	if _, err := network.ByName(m.Topology, m.N); err != nil {
		return fmt.Errorf("scenario %s: %v", s.Name, err)
	}
	switch m.PagePolicy {
	case "", "open", "closed":
	default:
		return fmt.Errorf("scenario %s: unknown page policy %q (want open or closed)", s.Name, m.PagePolicy)
	}
	if w.Program == "ping" && m.N < 2 {
		return fmt.Errorf("scenario %s: ping needs at least 2 nodes", s.Name)
	}
	return nil
}

// machineMemWords resolves the per-node VM memory size.
func (s Scenario) machineMemWords() int {
	if s.Machine.MemWords > 0 {
		return s.Machine.MemWords
	}
	return 16384
}

// machineTiming maps the scenario onto the VM's timing parameters. All
// fractional cycle counts round to nearest, the same policy the sweep
// axes see everywhere else.
func (s Scenario) machineTiming() isa.Timing {
	spawn := int64(math.Round(s.Machine.SpawnCycles))
	if s.Machine.SpawnCycles == 0 {
		spawn = 2
	}
	mem := int64(math.Round(s.Machine.MemCycles))
	return isa.Timing{
		MemCycles:     mem,
		WideMemCycles: mem,
		SpawnCycles:   spawn,
		NetLatency:    int64(math.Round(s.Machine.Latency)),
	}
}

// pingPeer is the node the ping program bounces off: the "farthest"
// label, so hop topologies genuinely stretch the flight.
func pingPeer(n int) int { return n / 2 }

// roundUpWide rounds u up to a positive multiple of the wide-op width.
func roundUpWide(u int) int {
	if u < isa.WideWords {
		return isa.WideWords
	}
	if r := u % isa.WideWords; r != 0 {
		u += isa.WideWords - r
	}
	return u
}

// --- machine: the execution-driven backend. ---

type machineBackend struct{}

func (machineBackend) Name() string { return "machine" }

// Supports: any valid execution-driven scenario.
func (machineBackend) Supports(s Scenario) bool {
	return s.Validate() == nil && s.Kind() == KindMachine
}

func (machineBackend) Run(s Scenario, cfg Config) (Result, error) {
	metrics, err := runMachineScenario(s, cfg)
	if err != nil {
		return Result{}, err
	}
	return Result{Backend: "machine", Metrics: metrics}, nil
}

// runMachineScenario builds the VM, loads and seeds the program, runs to
// completion, and extracts metrics. Everything is deterministic given
// (Scenario, Config): thread seeds derive from cfg.Seed through SplitMix64
// in a fixed order, and the interpreter itself is cycle-driven.
func runMachineScenario(s Scenario, cfg Config) (map[string]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Kind() != KindMachine {
		return nil, fmt.Errorf("scenario %s: not a machine scenario", s.Name)
	}
	memWords := s.machineMemWords()
	m, err := isa.NewMachine(s.Machine.N, memWords, s.machineTiming())
	if err != nil {
		return nil, err
	}
	// Node memory goes back to isa's pool once verify and the metrics
	// below have read it, so the next run of this size reuses it.
	defer m.Release()
	m.MaxCycles = machineMaxCycles
	// RunParallel sets the VM's workers, and the host-side staging and
	// verification run per node on as many goroutines (isa.EachNode).
	m.Parallelism = s.Machine.RunParallel
	m.Cancel = cfg.Cancel

	// Fault injection: an armed plan switches the VM to its reliable
	// retransmit protocol so programs still complete (and verify) under
	// loss; the degradation shows up in the delivery metrics below.
	plan, err := s.machineFaultPlan(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %v", s.Name, err)
	}
	if plan != nil {
		m.Fault = plan
		m.Reliable = plan.NetEnabled()
	}

	// Interconnect: hop topologies route each parcel over the network
	// model at Latency cycles per hop; flat keeps Timing.NetLatency.
	topo, err := network.ByName(s.Machine.Topology, s.Machine.N)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %v", s.Name, err)
	}
	if topo != nil {
		m.NetDelay = network.HopDelay(topo, s.Machine.Latency)
		m.NetLookahead = network.HopLookahead(topo, s.Machine.Latency)
	}

	// Memory timing: a per-node DRAM bank with row-buffer state replaces
	// the flat MemCycles when a page policy is selected. Word addresses
	// map onto rows by row-width blocks (64-bit VM words, 2048-bit rows:
	// 32 words per row), wrapping over the macro's row count.
	var banks []*dram.Bank
	if s.Machine.PagePolicy != "" {
		policy := dram.OpenPage
		if s.Machine.PagePolicy == "closed" {
			policy = dram.ClosedPage
		}
		macro := dram.PaperMacro()
		rowWords := uint64(macro.RowBits / 64)
		rows := uint64(macro.Rows)
		banks = make([]*dram.Bank, s.Machine.N)
		for i := range banks {
			if banks[i], err = dram.NewBank(macro, policy); err != nil {
				return nil, err
			}
		}
		m.MemDelay = func(node int, addr uint64, wide bool) int64 {
			row := int(addr / rowWords % rows)
			return int64(math.Ceil(banks[node].Access(row) / lwpCycleNS))
		}
	}

	updates := s.effectiveUpdates(cfg)
	work, err := stageMachineProgram(m, s, cfg, updates)
	if err != nil {
		return nil, err
	}
	cycles, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := work.verify(m); err != nil {
		return nil, fmt.Errorf("scenario %s: %v", s.Name, err)
	}

	instr := m.TotalInstructions()
	var memOps, spawns int64
	for _, n := range m.Nodes {
		memOps += n.MemOps
		spawns += n.Spawns
	}
	metrics := map[string]float64{
		MetricTotal:        float64(cycles),
		MetricEfficiency:   m.MeanUtilization(),
		MetricInstructions: float64(instr),
		MetricIPC:          float64(instr) / (float64(cycles) * float64(s.Machine.N)),
		MetricMemOps:       float64(memOps),
		MetricSpawns:       float64(spawns),
	}
	if work.units > 0 {
		metrics[MetricCyclesPerUpdate] = float64(cycles) / float64(work.units)
	}
	if banks != nil {
		var acc, hits int64
		for _, b := range banks {
			a, h, _ := b.Stats()
			acc += a
			hits += h
		}
		if acc > 0 {
			metrics[MetricRowHit] = float64(hits) / float64(acc)
		}
	}
	if m.Fault != nil {
		st := m.DeliveryStats()
		metrics[MetricDrops] = float64(st.Drops + st.Corrupts)
		metrics[MetricRetries] = float64(st.Retries)
		metrics[MetricDelivered] = float64(st.Delivered)
		goodput := 1.0
		if attempts := st.Sent + st.Retries; attempts > 0 {
			goodput = float64(st.Delivered) / float64(attempts)
		}
		metrics[MetricGoodput] = goodput
	}
	return metrics, nil
}

// machineFaultPlan builds the run's fault plan, or nil when every fault
// knob is zero — structurally fault-free: the VM never consults a plan,
// so metrics and fingerprints match a pre-fault baseline byte for byte.
// A zero FaultSeed derives the plan seed from the run's Config.Seed, so
// replications draw different faults at the same rates.
func (s Scenario) machineFaultPlan(cfg Config) (*fault.Plan, error) {
	mc := s.Machine
	straggler := int64(math.Round(mc.Straggler))
	if mc.FaultDrop == 0 && mc.FaultCorrupt == 0 && mc.FaultDup == 0 &&
		mc.FaultJitter == 0 && straggler <= 1 {
		return nil, nil
	}
	seed := mc.FaultSeed
	if seed == 0 {
		seed = cfg.Seed ^ 0x6661756c74 // "fault"
	}
	return fault.New(fault.Config{
		Seed:            seed,
		DropRate:        mc.FaultDrop,
		CorruptRate:     mc.FaultCorrupt,
		DupRate:         mc.FaultDup,
		JitterMax:       int64(math.Round(mc.FaultJitter)),
		StragglerFactor: straggler,
	})
}

// machineWork is what stageMachineProgram set up: the work-unit count for
// the cycles_per_update metric and a post-run correctness check.
type machineWork struct {
	units  int64
	verify func(*isa.Machine) error
}

// stageMachineProgram assembles the scenario's program, loads it on every
// node, stages input data, and starts the initial threads. The data of
// node i is the block of the one SplitMix64 stream that a node-by-node
// fill would give it, reached by Skip, so the nodes fill independently
// (m.EachNode) and the image is the same at every RunParallel.
func stageMachineProgram(m *isa.Machine, s Scenario, cfg Config, updates int) (machineWork, error) {
	none := machineWork{verify: func(*isa.Machine) error { return nil }}
	nodes := s.Machine.N
	par := s.Workload.Parallelism
	memWords := s.machineMemWords()
	sm := rng.SplitMix64{State: cfg.Seed ^ 0x6d616368696e65} // "machine"

	switch s.Workload.Program {
	case "gups":
		layout := isa.DefaultGUPSLayout()
		layout.Updates = updates
		if uint64(memWords) < layout.TableBase+uint64(layout.TableWords) {
			return none, fmt.Errorf("gups needs %d mem words, have %d",
				layout.TableBase+uint64(layout.TableWords), memWords)
		}
		prog, err := isa.GUPSProgram(layout)
		if err != nil {
			return none, err
		}
		if err := m.LoadAll(prog); err != nil {
			return none, err
		}
		entry, err := prog.Entry("main")
		if err != nil {
			return none, err
		}
		for i := 0; i < nodes; i++ {
			for t := 0; t < par; t++ {
				m.Nodes[i].StartThread(entry, sm.Next(), 0)
			}
		}
		total := int64(nodes) * int64(par) * int64(updates)
		return machineWork{units: total, verify: func(m *isa.Machine) error {
			var done int64
			for _, n := range m.Nodes {
				done += n.Completed
			}
			if done != int64(nodes)*int64(par) {
				return fmt.Errorf("gups: %d of %d threads completed", done, nodes*par)
			}
			return nil
		}}, nil

	case "treesum":
		layout := isa.DefaultTreeSumLayout()
		layout.DataWords = roundUpWide(updates)
		if uint64(memWords) < layout.DataBase+uint64(layout.DataWords) {
			return none, fmt.Errorf("treesum needs %d mem words, have %d",
				layout.DataBase+uint64(layout.DataWords), memWords)
		}
		prog, err := isa.TreeSumProgram(nodes, layout)
		if err != nil {
			return none, err
		}
		if err := m.LoadAll(prog); err != nil {
			return none, err
		}
		sums := make([]uint64, nodes)
		m.EachNode(func(n *isa.NodeState) {
			g := sm
			g.Skip(uint64(n.ID) * uint64(layout.DataWords))
			var sum uint64
			data := n.Mem[layout.DataBase:][:layout.DataWords]
			for k := range data {
				data[k] = g.Next() >> 40 // small values: the sum stays exact
				sum += data[k]
			}
			sums[n.ID] = sum
		})
		var want uint64
		for _, sum := range sums {
			want += sum
		}
		entry, err := prog.Entry("main")
		if err != nil {
			return none, err
		}
		m.Nodes[0].StartThread(entry, 0, 0)
		return machineWork{units: int64(nodes) * int64(layout.DataWords) / isa.WideWords,
			verify: func(m *isa.Machine) error {
				if got := m.Nodes[0].Mem[layout.AccAddr]; got != want {
					return fmt.Errorf("treesum: got %d, want %d", got, want)
				}
				return nil
			}}, nil

	case "ping":
		layout := isa.DefaultPingLayout()
		layout.Peer = pingPeer(nodes)
		prog, err := isa.PingProgram(layout, updates)
		if err != nil {
			return none, err
		}
		if err := m.LoadAll(prog); err != nil {
			return none, err
		}
		entry, err := prog.Entry("ping")
		if err != nil {
			return none, err
		}
		m.Nodes[0].StartThread(entry, uint64(updates), 0)
		return machineWork{units: int64(updates), verify: func(m *isa.Machine) error {
			if got := m.Nodes[0].Mem[layout.CountAddr]; got != uint64(updates) {
				return fmt.Errorf("ping: counted %d round trips, want %d", got, updates)
			}
			return nil
		}}, nil

	case "triad":
		words := roundUpWide(updates)
		layout := isa.TriadLayout{
			A: 8192, B: 8192 + uint64(words), C: 8192 + 2*uint64(words), Words: words,
		}
		if uint64(memWords) < layout.C+uint64(words) {
			return none, fmt.Errorf("triad needs %d mem words, have %d",
				layout.C+uint64(words), memWords)
		}
		prog, err := isa.StreamTriadProgram(layout)
		if err != nil {
			return none, err
		}
		if err := m.LoadAll(prog); err != nil {
			return none, err
		}
		m.EachNode(func(n *isa.NodeState) {
			g := sm
			g.Skip(uint64(n.ID) * 2 * uint64(words))
			a, b := n.Mem[layout.A:][:words], n.Mem[layout.B:][:words]
			for k := range a {
				a[k] = g.Next() >> 32
				b[k] = g.Next() >> 32
			}
		})
		entry, err := prog.Entry("main")
		if err != nil {
			return none, err
		}
		for i := 0; i < nodes; i++ {
			m.Nodes[i].StartThread(entry, 0, 0)
		}
		return machineWork{units: int64(nodes) * int64(words) / isa.WideWords,
			verify: func(m *isa.Machine) error {
				// bad[i] is node i's first wrong word, or -1; the error
				// names the lowest node's, as a node-by-node scan would.
				bad := make([]int, len(m.Nodes))
				m.EachNode(func(n *isa.NodeState) {
					bad[n.ID] = -1
					a, b := n.Mem[layout.A:][:words], n.Mem[layout.B:][:words]
					for k, c := range n.Mem[layout.C:][:words] {
						if c != a[k]+b[k] {
							bad[n.ID] = k
							return
						}
					}
				})
				for id, k := range bad {
					if k >= 0 {
						return fmt.Errorf("triad: node %d word %d wrong", id, k)
					}
				}
				return nil
			}}, nil
	}
	return none, fmt.Errorf("unknown machine program %q", s.Workload.Program)
}

// machinePingAnalytic is the closed-form counterpart the analytic backend
// serves for ping scenarios: the exact cycle count of the round-trip
// chain under the paper's flat-network assumption. A hop topology that
// stretches the node-0-to-peer flight (or a DRAM page policy that changes
// the AMO cost) falls outside the form — which is precisely the timing
// skew the cross-backend validator exists to catch.
func machinePingAnalytic(s Scenario, cfg Config) (Result, error) {
	rounds := s.effectiveUpdates(cfg)
	total := isa.PingTotalCycles(rounds, int64(math.Round(s.Machine.Latency)),
		int64(math.Round(s.Machine.MemCycles)))
	return Result{Backend: "analytic", Metrics: map[string]float64{
		MetricTotal: float64(total),
	}}, nil
}
