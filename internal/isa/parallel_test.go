package isa

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/network"
)

// This file is the determinism suite for the conservative time-windowed
// parallel executor (parallel.go): for every builtin program on every
// topology, a parallel run — at any worker count, under any partition
// shape — must be byte-identical to the serial per-cycle interpreter in
// every observable: cycle count, all per-node counters, and all of
// memory. The per-cycle ForceInterpret path is the oracle; the serial
// windowed path rides along as a third independent schedule of the same
// machine.

// parallelPrograms stages each builtin kernel on a 16-node machine
// (square and a power of two, so every topology accepts it): the random
// update kernel (no parcels, pure partition concurrency), the spawn tree
// (parcel fan-out and fan-in), the parcel ping-pong (a single migrating
// thread — maximal cross-partition traffic), and the node-local triad
// (per-node memory streams, zero interaction).
func parallelPrograms(t *testing.T) map[string]func(t *testing.T) *Machine {
	t.Helper()
	const nodes = 16
	timing := DefaultTiming()
	return map[string]func(t *testing.T) *Machine{
		"gups": func(t *testing.T) *Machine {
			t.Helper()
			layout := DefaultGUPSLayout()
			layout.Updates = 48
			prog, err := GUPSProgram(layout)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(nodes, 16384, timing)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadAll(prog); err != nil {
				t.Fatal(err)
			}
			entry, err := prog.Entry("main")
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range m.Nodes {
				n.StartThread(entry, uint64(n.ID)*5+1, 0)
				n.StartThread(entry, uint64(n.ID)*5+2, 0)
			}
			m.MaxCycles = 10_000_000
			return m
		},
		"treesum": func(t *testing.T) *Machine {
			t.Helper()
			layout := DefaultTreeSumLayout()
			prog, err := TreeSumProgram(nodes, layout)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(nodes, 16384, timing)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadAll(prog); err != nil {
				t.Fatal(err)
			}
			for i, n := range m.Nodes {
				for k := 0; k < layout.DataWords; k++ {
					n.Mem[layout.DataBase+uint64(k)] = uint64(i*layout.DataWords + k + 1)
				}
			}
			entry, err := prog.Entry("main")
			if err != nil {
				t.Fatal(err)
			}
			m.Nodes[0].StartThread(entry, 0, 0)
			m.MaxCycles = 10_000_000
			return m
		},
		"ping": func(t *testing.T) *Machine {
			t.Helper()
			layout := DefaultPingLayout()
			layout.Peer = nodes / 2
			prog, err := PingProgram(layout, 4)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(nodes, 16384, timing)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadAll(prog); err != nil {
				t.Fatal(err)
			}
			entry, err := prog.Entry("ping")
			if err != nil {
				t.Fatal(err)
			}
			m.Nodes[0].StartThread(entry, 4, 0)
			m.MaxCycles = 10_000_000
			return m
		},
		"triad": func(t *testing.T) *Machine {
			t.Helper()
			layout := DefaultTriadLayout()
			prog, err := StreamTriadProgram(layout)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(nodes, 32768, timing)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadAll(prog); err != nil {
				t.Fatal(err)
			}
			for _, n := range m.Nodes {
				for i := 0; i < layout.Words; i++ {
					n.Mem[layout.A+uint64(i)] = uint64(i + n.ID)
					n.Mem[layout.B+uint64(i)] = uint64(3*i + n.ID)
				}
			}
			entry, err := prog.Entry("main")
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range m.Nodes {
				n.StartThread(entry, 0, 0)
			}
			m.MaxCycles = 10_000_000
			return m
		},
	}
}

// applyTopology installs hop routing at 3 cycles per hop (small, so runs
// cross many window barriers) — or leaves the flat network for "flat".
func applyTopology(t *testing.T, m *Machine, topoName string) {
	t.Helper()
	const perHop = 3
	topo, err := network.ByName(topoName, len(m.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	if topo == nil {
		return
	}
	m.NetDelay = network.HopDelay(topo, perHop)
	m.NetLookahead = network.HopLookahead(topo, perHop)
}

// runFingerprint runs the machine and renders every observable: cycle
// count, per-node counters, and an FNV-64a hash over all node memory.
func runFingerprint(t *testing.T, m *Machine) string {
	t.Helper()
	cycles, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b bytes.Buffer
	fmt.Fprintf(&b, "cycles=%d\n", cycles)
	for _, n := range m.Nodes {
		for _, w := range n.Mem {
			var raw [8]byte
			for i := range raw {
				raw[i] = byte(w >> (8 * i))
			}
			h.Write(raw[:])
		}
		fmt.Fprintf(&b, "node %d: instr=%d mem=%d wide=%d spawn=%d busy=%d idle=%d done=%d\n",
			n.ID, n.Instructions, n.MemOps, n.WideOps, n.Spawns,
			n.BusyCycles, n.IdleCycles, n.Completed)
		// Parcel-delivery counters: all zero on fault-free runs, so this
		// line is inert for the classic matrix and pins the delivery
		// schedule for the fault matrix.
		fmt.Fprintf(&b, "node %d parcels: sent=%d drop=%d corrupt=%d dup=%d retry=%d deliver=%d lost=%d\n",
			n.ID, n.ParcelsSent, n.ParcelDrops, n.ParcelCorrupts, n.ParcelDups,
			n.ParcelRetries, n.ParcelsDelivered, n.ParcelsLost)
	}
	fmt.Fprintf(&b, "memhash=%#x\n", h.Sum64())
	return b.String()
}

// parallelModes is the execution-mode matrix: the per-cycle oracle, the
// serial windowed path, and P ∈ {1, 2, 4, 7} under contiguous (nil
// Partition) and strided (node i -> worker i mod P) assignments. P=7
// does not divide 16 and P exceeding no divisor exercises ragged
// partitions; strided assignments split adjacent nodes across workers.
func parallelModes() []struct {
	name  string
	apply func(m *Machine)
} {
	modes := []struct {
		name  string
		apply func(m *Machine)
	}{
		{"interp", func(m *Machine) { m.ForceInterpret = true }},
		{"serial", func(m *Machine) {}},
	}
	for _, p := range []int{1, 2, 4, 7} {
		p := p
		modes = append(modes, struct {
			name  string
			apply func(m *Machine)
		}{fmt.Sprintf("p%d-contig", p), func(m *Machine) { m.Parallelism = p }})
		modes = append(modes, struct {
			name  string
			apply func(m *Machine)
		}{fmt.Sprintf("p%d-strided", p), func(m *Machine) {
			m.Parallelism = p
			m.Partition = make([]int, len(m.Nodes))
			for i := range m.Partition {
				m.Partition[i] = i % p
			}
		}})
	}
	return modes
}

// TestParallelDeterminism is the tentpole's acceptance property: for
// every builtin program × topology, every parallel configuration
// produces the identical run fingerprint as the per-cycle serial
// interpreter. Each case also runs with a stateful MemDelay hook
// (openRowDelay). The hook keeps the windowed and parallel paths, so
// there every mode agrees with the oracle only if each node's calls reach
// the hook in that node's cycle order on every path; the per-node call
// counts join the fingerprint.
func TestParallelDeterminism(t *testing.T) {
	for _, topo := range []string{"flat", "ring", "mesh", "torus", "hypercube"} {
		for name, build := range parallelPrograms(t) {
			for _, hook := range []bool{false, true} {
				sub := topo + "/" + name
				if hook {
					sub += "/memdelay"
				}
				t.Run(sub, func(t *testing.T) {
					var want string
					for _, mode := range parallelModes() {
						m := build(t)
						applyTopology(t, m, topo)
						calls := make([]int64, len(m.Nodes))
						if hook {
							m.MemDelay = openRowDelay(calls)
						}
						mode.apply(m)
						got := runFingerprint(t, m) + fmt.Sprintf("calls=%v\n", calls)
						if want == "" {
							want = got
							continue
						}
						if got != want {
							t.Fatalf("%s diverges from interp oracle:\n--- %s ---\n%s--- interp ---\n%s",
								mode.name, mode.name, got, want)
						}
					}
				})
			}
		}
	}
}

// openRowDelay returns a MemDelay hook that models one open-row buffer
// per node, as internal/dram's banks do: an access to the row the node
// touched last costs 2 cycles, any other 6 (9 when wide). It counts each
// node's calls in calls and touches only that node's entries.
func openRowDelay(calls []int64) func(node int, addr uint64, wide bool) int64 {
	openRow := make([]uint64, len(calls))
	return func(node int, addr uint64, wide bool) int64 {
		calls[node]++
		row := addr/32 + 1
		switch {
		case openRow[node] == row:
			return 2
		case wide:
			openRow[node] = row
			return 9
		}
		openRow[node] = row
		return 6
	}
}

// TestParallelTraceFallsBackToSerial documents the hook guarantee: a
// Trace observer forces serial per-cycle execution even with Parallelism
// set, so trace streams are byte-identical by construction.
func TestParallelTraceFallsBackToSerial(t *testing.T) {
	build := parallelPrograms(t)["treesum"]
	trace := func(parallel int) []byte {
		m := build(t)
		applyTopology(t, m, "torus")
		m.Parallelism = parallel
		var buf bytes.Buffer
		m.Trace = func(cycle int64, node int, pc uint64, in Instr) {
			fmt.Fprintf(&buf, "%d %d %d %v\n", cycle, node, pc, in)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := trace(1)
	par := trace(4)
	if len(serial) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(serial, par) {
		t.Fatalf("trace streams diverge under Parallelism (%d vs %d bytes)", len(serial), len(par))
	}
}

// TestParallelZeroLookaheadFallsBackToSerial is the adversarial case: a
// zero-latency NetDelay (FlatNetwork with L=0) admits no conservative
// window, so a parallel run must fall back to per-cycle serial execution
// — same result, no deadlock, no divergence — rather than guess a
// lookahead.
func TestParallelZeroLookaheadFallsBackToSerial(t *testing.T) {
	build := parallelPrograms(t)["treesum"]
	run := func(configure func(m *Machine)) string {
		m := build(t)
		configure(m)
		return runFingerprint(t, m)
	}
	// Oracle: the same zero-latency network expressed as the flat timing.
	want := run(func(m *Machine) {
		m.Timing.NetLatency = 0
		m.ForceInterpret = true
	})
	for _, p := range []int{1, 4, 7} {
		got := run(func(m *Machine) {
			zero := network.NewFlat(len(m.Nodes), 0)
			m.NetDelay = func(src, dst int) int64 { return int64(zero.Latency(src, dst)) }
			m.NetLookahead = 0 // unknown: L=0 admits none
			m.Parallelism = p
		})
		if got != want {
			t.Fatalf("zero-lookahead run at P=%d diverges:\n--- got ---\n%s--- want ---\n%s", p, got, want)
		}
	}
}

// TestParallelMaxWindowEquivalence pins that shrinking the window bound
// changes only barrier granularity, never results.
func TestParallelMaxWindowEquivalence(t *testing.T) {
	build := parallelPrograms(t)["ping"]
	var want string
	for _, maxW := range []int64{0, 3, 1} {
		m := build(t)
		applyTopology(t, m, "ring")
		m.Parallelism = 4
		m.MaxWindow = maxW
		got := runFingerprint(t, m)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("MaxWindow=%d diverges:\n--- got ---\n%s--- want ---\n%s", maxW, got, want)
		}
	}
}

// TestParallelLookaheadViolation pins the safety net: a NetDelay that
// undercuts the declared NetLookahead must surface as an error at a
// window barrier, not silently diverge.
func TestParallelLookaheadViolation(t *testing.T) {
	for _, mode := range []struct {
		name string
		par  int
	}{{"serial-windowed", 0}, {"parallel", 4}} {
		t.Run(mode.name, func(t *testing.T) {
			build := parallelPrograms(t)["ping"]
			m := build(t)
			m.NetDelay = func(src, dst int) int64 { return 1 } // lies below the promise
			m.NetLookahead = 50
			m.Parallelism = mode.par
			_, err := m.Run()
			if err == nil || !strings.Contains(err.Error(), "NetLookahead") {
				t.Fatalf("want a NetLookahead violation error, got %v", err)
			}
		})
	}
}

// TestParallelPartitionValidation pins the Partition error paths.
func TestParallelPartitionValidation(t *testing.T) {
	build := parallelPrograms(t)["gups"]
	m := build(t)
	applyTopology(t, m, "ring")
	m.Parallelism = 2
	m.Partition = []int{0, 1} // wrong length for 16 nodes
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "Partition") {
		t.Fatalf("want a Partition length error, got %v", err)
	}
	m2 := build(t)
	applyTopology(t, m2, "ring")
	m2.Parallelism = 2
	m2.Partition = make([]int, len(m2.Nodes))
	m2.Partition[3] = 7 // outside [0, Parallelism)
	if _, err := m2.Run(); err == nil || !strings.Contains(err.Error(), "Partition") {
		t.Fatalf("want a Partition range error, got %v", err)
	}
}

// TestParallelResetReuse pins that a parallel machine Resets and re-runs
// to the identical fingerprint — the bench harness's reuse pattern.
func TestParallelResetReuse(t *testing.T) {
	layout := DefaultGUPSLayout()
	layout.Updates = 32
	prog, err := GUPSProgram(layout)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(16, 16384, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	topo, err := network.ByName("torus", 16)
	if err != nil {
		t.Fatal(err)
	}
	m.NetDelay = network.HopDelay(topo, 3)
	m.NetLookahead = network.HopLookahead(topo, 3)
	m.Parallelism = 4
	entry, err := prog.Entry("main")
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for round := 0; round < 3; round++ {
		m.Reset()
		if err := m.LoadAll(prog); err != nil {
			t.Fatal(err)
		}
		for _, n := range m.Nodes {
			n.StartThread(entry, uint64(n.ID)+1, 0)
		}
		got := runFingerprint(t, m)
		if round == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("round %d diverges after Reset:\n--- got ---\n%s--- want ---\n%s", round, got, want)
		}
	}
}
