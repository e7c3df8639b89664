package isa

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/testutil"
)

// This file is the determinism suite for the conservative time-windowed
// parallel executor (parallel.go): for every builtin program on every
// topology, a parallel run — at any worker count, under any partition
// shape — must be byte-identical to the reference interpreter (refRun)
// in every observable: cycle count, all per-node counters, and all of
// memory. The serial windowed path rides along as a third schedule of
// the same machine.

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
	return runFingerprintWith(t, m, (*Machine).Run)
}

// runFingerprintWith is runFingerprint on the execution path run.
func runFingerprintWith(t *testing.T, m *Machine, run func(*Machine) (int64, error)) string {
	t.Helper()
	cycles, err := run(m)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(m, cycles)
}

// fingerprint renders the machine's observables after a run of cycles.
func fingerprint(m *Machine, cycles int64) string {
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

// execMode is one execution path: the reference interpreter, or Run
// under some configuration.
type execMode struct {
	name string
	run  func(m *Machine) (int64, error)
}

// parallelRun returns the execution path that runs m on p workers, with
// node i on worker i mod p when strided (nil Partition otherwise).
func parallelRun(p int, strided bool) func(m *Machine) (int64, error) {
	return func(m *Machine) (int64, error) {
		m.Parallelism = p
		if strided {
			m.Partition = make([]int, len(m.Nodes))
			for i := range m.Partition {
				m.Partition[i] = i % p
			}
		}
		return m.Run()
	}
}

// parallelModes is the execution-mode matrix: the reference oracle, the
// serial windowed path, and P ∈ {1, 2, 4, 7} under contiguous (nil
// Partition) and strided (node i -> worker i mod P) assignments. P=7
// does not divide 16 and P exceeding no divisor exercises ragged
// partitions; strided assignments split adjacent nodes across workers.
func parallelModes() []execMode {
	modes := []execMode{{"ref", refRun}, {"serial", (*Machine).Run}}
	for _, p := range []int{1, 2, 4, 7} {
		modes = append(modes,
			execMode{fmt.Sprintf("p%d-contig", p), parallelRun(p, false)},
			execMode{fmt.Sprintf("p%d-strided", p), parallelRun(p, true)})
	}
	return modes
}

// TestParallelDeterminism is the tentpole's acceptance property: for
// every builtin program × topology, every parallel configuration
// produces the identical run fingerprint as the reference interpreter. Each case also runs with a stateful MemDelay hook
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
						got := runFingerprintWith(t, m, mode.run) + fmt.Sprintf("calls=%v\n", calls)
						if want == "" {
							want = got
							continue
						}
						if got != want {
							t.Fatalf("%s diverges from the reference:\n--- %s ---\n%s--- ref ---\n%s",
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

// TestParallelTraceEquivalence pins the hook guarantee: Trace and
// Output calls are buffered per window and replayed at the barrier in
// (cycle, node) order, so the streams of serial and parallel runs are
// byte-identical to the reference interpreter's, on every topology.
func TestParallelTraceEquivalence(t *testing.T) {
	for _, topo := range []string{"flat", "torus"} {
		for name, build := range parallelPrograms(t) {
			t.Run(topo+"/"+name, func(t *testing.T) {
				var want string
				for _, mode := range parallelModes() {
					m := build(t)
					applyTopology(t, m, topo)
					var buf bytes.Buffer
					m.Trace = func(cycle int64, node int, pc uint64, in Instr) {
						fmt.Fprintf(&buf, "%d %d %d %v\n", cycle, node, pc, in)
					}
					m.Output = func(node int, v uint64) { fmt.Fprintf(&buf, "out %d %d\n", node, v) }
					got := runFingerprintWith(t, m, mode.run) + buf.String()
					if mode.name == "ref" {
						want = got
						continue
					}
					if got != want {
						t.Fatalf("%s trace diverges from the reference (%d vs %d bytes)", mode.name, len(got), len(want))
					}
				}
			})
		}
	}
}

// TestParallelZeroLookaheadFallsBackToSerial is the adversarial case: a
// zero-latency NetDelay (FlatNetwork with L=0) admits no conservative
// window, so a parallel run must fall back to serial one-cycle windows
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
	m := build(t)
	m.Timing.NetLatency = 0
	want := runFingerprintWith(t, m, refRun)
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

// TestParallelMaxWindowEquivalence pins that shrinking the window cap
// changes only barrier granularity, never results.
func TestParallelMaxWindowEquivalence(t *testing.T) {
	build := parallelPrograms(t)["ping"]
	var want string
	for _, maxW := range []int64{0, 3, 1} {
		m := build(t)
		applyTopology(t, m, "ring")
		m.Parallelism = 4
		m.maxWindow = maxW
		got := runFingerprint(t, m)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("maxWindow=%d diverges:\n--- got ---\n%s--- want ---\n%s", maxW, got, want)
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

// TestBurstBeyondSixtyFourThreads drives one node past 64 thread slots
// mid-window: three nodes each spawn 34 short workers onto node 0, whose
// two long-running threads are live when the burst lands. The workers
// loop on a shared counter with memory stalls and halt after 1-7
// iterations, so the slab also compacts while threads are live. Serial,
// parallel (P = 2, 3) and zero-rate-fault runs must all match the
// reference interpreter — run fingerprint and issue order — on a flat
// and a hop-routed network.
func TestBurstBeyondSixtyFourThreads(t *testing.T) {
	const src = `
main:
    addi r5, r0, worker
    spawn r1, r0, r5
    halt
worker:
    addi r3, r0, 800
loop:
    ld   r4, r3, 0
    addi r4, r4, 1
    st   r4, r3, 0
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	// Memory ops stall about as long as a round-robin pass over the
	// burst, so most workers are stalled most of the time and every
	// wake cycle shapes the issue order.
	timing := DefaultTiming()
	timing.MemCycles = 97
	build := func(t *testing.T, topo string) *Machine {
		m, err := NewMachine(4, 2048, timing)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadAll(prog); err != nil {
			t.Fatal(err)
		}
		applyTopology(t, m, topo)
		mainPC, _ := prog.Entry("main")
		worker, _ := prog.Entry("worker")
		m.Nodes[0].StartThread(worker, 40, 0)
		m.Nodes[0].StartThread(worker, 45, 0)
		for _, n := range m.Nodes[1:] {
			for i := 0; i < 34; i++ {
				n.StartThread(mainPC, uint64(i%7+1), 0)
			}
		}
		m.MaxCycles = 1_000_000
		return m
	}
	zeroFault := func(run func(*Machine) (int64, error)) func(*Machine) (int64, error) {
		return func(m *Machine) (int64, error) {
			m.Fault = mustFaultPlan(t, fault.Config{Seed: 7})
			m.Reliable = true
			return run(m)
		}
	}
	modes := []execMode{
		{"serial", (*Machine).Run},
		{"p2", parallelRun(2, false)},
		{"p3", parallelRun(3, true)},
		{"zero-fault", zeroFault((*Machine).Run)},
		{"zero-fault-p3", zeroFault(parallelRun(3, false))},
	}
	// traced runs m with a Trace hook and returns the issue stream.
	traced := func(m *Machine, run func(*Machine) (int64, error)) string {
		var b strings.Builder
		m.Trace = func(cycle int64, node int, pc uint64, in Instr) {
			fmt.Fprintf(&b, "%d %d %d\n", cycle, node, pc)
		}
		runFingerprintWith(t, m, run)
		return b.String()
	}
	for _, topo := range []string{"flat", "ring"} {
		t.Run(topo, func(t *testing.T) {
			want := runFingerprintWith(t, build(t, topo), refRun)
			wantTrace := traced(build(t, topo), refRun)
			for _, mode := range modes {
				m := build(t, topo)
				if got := runFingerprintWith(t, m, mode.run); got != want {
					t.Fatalf("%s diverges from the reference:\n--- %s ---\n%s--- ref ---\n%s", mode.name, mode.name, got, want)
				}
				if c := cap(m.Nodes[0].threads); c < 64 {
					t.Fatalf("%s: node 0's slab peaked at %d slots, want >= 64", mode.name, c)
				}
				if got := traced(build(t, topo), mode.run); got != wantTrace {
					t.Fatalf("%s: issue order diverges from the reference", mode.name)
				}
			}
		})
	}
}

// TestParallelLeavesNoGoroutines: every way out of a parallel run — the
// machine finishing, a fault, Cancel and the MaxCycles limit — closes
// the window barrier's helpers, so the goroutine count returns to where
// it was.
func TestParallelLeavesNoGoroutines(t *testing.T) {
	const faultSrc = "main:\n lui r1, 255\n ld r2, r1, 0\n halt"
	cases := []struct {
		name    string
		build   func(t *testing.T) *Machine
		wantErr bool
	}{
		{"finish", func(t *testing.T) *Machine { return parallelPrograms(t)["gups"](t) }, false},
		{"fault", func(t *testing.T) *Machine { return mustMachine(t, faultSrc, 4) }, true},
		{"cancel", func(t *testing.T) *Machine {
			m := mustMachine(t, spinSrc, 4)
			m.Cancel = cancelAfter(10)
			return m
		}, true},
		{"max-cycles", func(t *testing.T) *Machine {
			m := mustMachine(t, spinSrc, 4)
			m.MaxCycles = 5000
			return m
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.build(t)
			m.Parallelism = 3
			if m.MaxCycles == 0 {
				m.MaxCycles = 5_000_000
			}
			base := runtime.NumGoroutine()
			if _, err := m.Run(); (err != nil) != c.wantErr {
				t.Fatalf("err = %v, want an error: %t", err, c.wantErr)
			}
			testutil.WaitGoroutines(t, base, "after the run")
		})
	}
}
