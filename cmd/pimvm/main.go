// Command pimvm assembles and runs programs for the lightweight PIM node
// ISA (internal/isa) on a multi-node machine with parcel-spawn support.
//
// Usage:
//
//	pimvm [flags] program.pasm
//	pimvm [flags] -builtin gups|treesum|ping|triad
//
// Flags:
//
//	-nodes N      number of PIM nodes (default 4)
//	-mem W        words of memory per node (default 65536)
//	-latency L    inter-node parcel latency in cycles (default 200);
//	              per-hop cost when -topology is set
//	-topology T   parcel routing: flat (default), ring, mesh, torus,
//	              hypercube (mesh/torus need a square node count,
//	              hypercube a power of two)
//	-entry LBL    entry label (default "main"), started on node 0
//	-threads T    initial threads at the entry point (default 1)
//	-max C        cycle budget (default 10,000,000)
//	-builtin P    run a reference program from internal/isa instead of a
//	              file (gups, treesum, ping, triad)
//	-parallel P   execute the run on P workers via the VM's conservative
//	              time-windowed PDES (default 1 = serial). Results, OUT
//	              lines included, are byte-identical to serial for any P.
//	-fingerprint  print a determinism fingerprint (cycles, counters, and
//	              an FNV-64a hash of every node's memory) after the run
//	-faultdrop P     parcel drop probability per attempt, [0, 1)
//	-faultcorrupt P  parcel corruption probability per attempt, [0, 1)
//	-faultdup P      parcel duplication probability per attempt, [0, 1)
//	-faultjitter J   max extra parcel delivery delay in cycles
//	-straggler F     deterministic straggler cost factor (0/1 = off)
//	-faultseed S     fault-plan seed (plans are pure functions of the seed)
//	-dis          print the disassembly and exit
//	-stats        print per-node statistics after the run
//
// When any fault rate is nonzero the machine runs its seq/ack retransmit
// protocol, a delivery summary follows the run, and the fingerprint
// additionally covers the per-node parcel counters. Fault decisions are
// keyed by parcel identity, never execution order, so fingerprints stay
// byte-identical across -parallel settings even under injected faults.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/report"
	"repro/internal/rng"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pimvm:", err)
		os.Exit(1)
	}
}

// builtinProgram assembles one of the internal/isa reference programs and
// returns it with its entry label, a start function, and whether the
// program honors -threads (only gups fans the flag out; the others define
// their own thread structure).
func builtinProgram(name string, nodes int) (*isa.Program, string, func(m *isa.Machine, threads int) error, bool, error) {
	switch name {
	case "gups":
		prog, err := isa.GUPSProgram(isa.DefaultGUPSLayout())
		if err != nil {
			return nil, "", nil, false, err
		}
		start := func(m *isa.Machine, threads int) error {
			entry, err := prog.Entry("main")
			if err != nil {
				return err
			}
			sm := rng.SplitMix64{State: 2004}
			for _, n := range m.Nodes {
				for t := 0; t < threads; t++ {
					n.StartThread(entry, sm.Next(), 0)
				}
			}
			return nil
		}
		return prog, "main", start, true, nil
	case "treesum":
		layout := isa.DefaultTreeSumLayout()
		prog, err := isa.TreeSumProgram(nodes, layout)
		if err != nil {
			return nil, "", nil, false, err
		}
		start := func(m *isa.Machine, threads int) error {
			for i, n := range m.Nodes {
				for k := 0; k < layout.DataWords; k++ {
					n.Mem[layout.DataBase+uint64(k)] = uint64(i*layout.DataWords + k)
				}
			}
			entry, err := prog.Entry("main")
			if err != nil {
				return err
			}
			m.Nodes[0].StartThread(entry, 0, 0)
			return nil
		}
		return prog, "main", start, false, nil
	case "ping":
		if nodes < 2 {
			return nil, "", nil, false, fmt.Errorf("-builtin ping needs at least 2 nodes")
		}
		layout := isa.DefaultPingLayout()
		layout.Peer = nodes / 2
		const rounds = 64
		prog, err := isa.PingProgram(layout, rounds)
		if err != nil {
			return nil, "", nil, false, err
		}
		start := func(m *isa.Machine, threads int) error {
			entry, err := prog.Entry("ping")
			if err != nil {
				return err
			}
			m.Nodes[0].StartThread(entry, rounds, 0)
			return nil
		}
		return prog, "ping", start, false, nil
	case "triad":
		layout := isa.DefaultTriadLayout()
		prog, err := isa.StreamTriadProgram(layout)
		if err != nil {
			return nil, "", nil, false, err
		}
		start := func(m *isa.Machine, threads int) error {
			for _, n := range m.Nodes {
				for k := 0; k < layout.Words; k++ {
					n.Mem[layout.A+uint64(k)] = uint64(k)
					n.Mem[layout.B+uint64(k)] = uint64(2 * k)
				}
			}
			entry, err := prog.Entry("main")
			if err != nil {
				return err
			}
			for _, n := range m.Nodes {
				n.StartThread(entry, 0, 0)
			}
			return nil
		}
		return prog, "main", start, false, nil
	default:
		return nil, "", nil, false, fmt.Errorf("unknown -builtin %q (want gups, treesum, ping, triad)", name)
	}
}

// machineFingerprint condenses a finished run into one comparable line:
// the cycle count, every node's execution counters, and an FNV-64a hash of
// all node memories folded into a single hash. Two runs of the same
// program agree on this line exactly iff they agree on every counter and
// every memory word — the CI smoke test compares it across -parallel
// settings to hold the PDES determinism guarantee.
func machineFingerprint(m *isa.Machine, cycles int64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "cycles=%d\n", cycles)
	for _, n := range m.Nodes {
		fmt.Fprintf(h, "node %d: instr=%d mem=%d wide=%d spawn=%d busy=%d idle=%d done=%d\n",
			n.ID, n.Instructions, n.MemOps, n.WideOps, n.Spawns,
			n.BusyCycles, n.IdleCycles, n.Completed)
		if m.Fault != nil {
			// Fault runs fold the resilience counters in too; fault-free
			// fingerprints stay byte-compatible with earlier releases.
			fmt.Fprintf(h, "node %d parcels: sent=%d drop=%d corrupt=%d dup=%d retry=%d deliver=%d lost=%d\n",
				n.ID, n.ParcelsSent, n.ParcelDrops, n.ParcelCorrupts, n.ParcelDups,
				n.ParcelRetries, n.ParcelsDelivered, n.ParcelsLost)
		}
		var raw [8]byte
		for _, w := range n.Mem {
			for i := range raw {
				raw[i] = byte(w >> (8 * i))
			}
			h.Write(raw[:])
		}
	}
	return fmt.Sprintf("fingerprint=%#016x", h.Sum64())
}

func run(args []string) error {
	fs := flag.NewFlagSet("pimvm", flag.ContinueOnError)
	nodes := fs.Int("nodes", 4, "number of PIM nodes")
	mem := fs.Int("mem", 65536, "words of memory per node")
	latency := fs.Int64("latency", 200, "inter-node parcel latency (cycles; per hop with -topology)")
	topology := fs.String("topology", "flat", "parcel routing: flat, ring, mesh, torus, hypercube")
	entry := fs.String("entry", "main", "entry label")
	threads := fs.Int("threads", 1, "initial threads at the entry point")
	maxCycles := fs.Int64("max", 10_000_000, "cycle budget")
	builtin := fs.String("builtin", "", "run a reference program: gups, treesum, ping, triad")
	parallel := fs.Int("parallel", 1, "PDES workers for the run (1 = serial; results identical)")
	fingerprint := fs.Bool("fingerprint", false, "print a determinism fingerprint after the run")
	dis := fs.Bool("dis", false, "disassemble and exit")
	stats := fs.Bool("stats", false, "print per-node statistics")
	faultDrop := fs.Float64("faultdrop", 0, "parcel drop probability per attempt, [0, 1)")
	faultCorrupt := fs.Float64("faultcorrupt", 0, "parcel corruption probability per attempt, [0, 1)")
	faultDup := fs.Float64("faultdup", 0, "parcel duplication probability per attempt, [0, 1)")
	faultJitter := fs.Int64("faultjitter", 0, "max extra parcel delivery delay in cycles")
	straggler := fs.Int64("straggler", 0, "deterministic straggler cost factor (0/1 = off)")
	faultSeed := fs.Uint64("faultseed", 0x9142, "fault-plan seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var prog *isa.Program
	var start func(m *isa.Machine, threads int) error
	switch {
	case *builtin != "":
		if fs.NArg() != 0 {
			return fmt.Errorf("-builtin takes no program file")
		}
		var honorsThreads bool
		var err error
		prog, _, start, honorsThreads, err = builtinProgram(*builtin, *nodes)
		if err != nil {
			return err
		}
		if *threads != 1 && !honorsThreads {
			return fmt.Errorf("-builtin %s defines its own thread structure; -threads applies only to gups (and .pasm programs)", *builtin)
		}
		if *entry != "main" {
			return fmt.Errorf("-builtin %s starts at its own entry point; -entry applies only to .pasm programs", *builtin)
		}
	case fs.NArg() == 1:
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		prog, err = isa.Assemble(string(src))
		if err != nil {
			return err
		}
		start = func(m *isa.Machine, threads int) error {
			addr, err := prog.Entry(*entry)
			if err != nil {
				return err
			}
			for i := 0; i < threads; i++ {
				m.Nodes[0].StartThread(addr, uint64(i), 0)
			}
			return nil
		}
	default:
		return fmt.Errorf("usage: pimvm [flags] program.pasm | pimvm [flags] -builtin <name>")
	}
	if *dis {
		fmt.Print(isa.Disassemble(prog))
		return nil
	}

	timing := isa.DefaultTiming()
	timing.NetLatency = *latency
	m, err := isa.NewMachine(*nodes, *mem, timing)
	if err != nil {
		return err
	}
	topo, err := network.ByName(*topology, *nodes)
	if err != nil {
		return err
	}
	if topo != nil {
		m.NetDelay = network.HopDelay(topo, float64(*latency))
		m.NetLookahead = network.HopLookahead(topo, float64(*latency))
	}
	if err := m.LoadAll(prog); err != nil {
		return err
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel %d: want at least 1", *parallel)
	}
	m.Parallelism = *parallel
	m.Output = func(node int, v uint64) {
		fmt.Printf("node %d: %d\n", node, v)
	}
	m.MaxCycles = *maxCycles
	if *faultDrop != 0 || *faultCorrupt != 0 || *faultDup != 0 || *faultJitter != 0 || *straggler > 1 {
		for _, r := range []struct {
			name string
			v    float64
		}{{"-faultdrop", *faultDrop}, {"-faultcorrupt", *faultCorrupt}, {"-faultdup", *faultDup}} {
			if r.v >= 1 {
				return fmt.Errorf("%s %g: want [0, 1) — a certain fault would retransmit forever", r.name, r.v)
			}
		}
		plan, err := fault.New(fault.Config{
			Seed:            *faultSeed,
			DropRate:        *faultDrop,
			CorruptRate:     *faultCorrupt,
			DupRate:         *faultDup,
			JitterMax:       *faultJitter,
			StragglerFactor: *straggler,
		})
		if err != nil {
			return err
		}
		m.Fault = plan
		m.Reliable = plan.NetEnabled()
	}
	if err := start(m, *threads); err != nil {
		return err
	}
	cycles, err := m.Run()
	if err != nil {
		return err
	}
	fmt.Printf("completed in %d cycles, %d instructions\n", cycles, m.TotalInstructions())
	if m.Fault != nil {
		st := m.DeliveryStats()
		fmt.Printf("parcels: sent=%d delivered=%d lost=%d drops=%d corrupts=%d dups=%d retries=%d\n",
			st.Sent, st.Delivered, st.Lost, st.Drops, st.Corrupts, st.Dups, st.Retries)
	}
	if *fingerprint {
		fmt.Println(machineFingerprint(m, cycles))
	}
	if *stats {
		t := report.NewTable("per-node statistics",
			"node", "instructions", "mem ops", "wide ops", "spawns", "threads done", "utilization")
		for i, n := range m.Nodes {
			t.AddRow(i, n.Instructions, n.MemOps, n.WideOps, n.Spawns, n.Completed, m.Utilization(i))
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
