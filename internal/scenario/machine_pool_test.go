package scenario

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/rng"
)

// The machine backend takes node memory from isa's pool and stages and
// verifies it per node on RunParallel goroutines. These tests hold both
// to what a fresh machine and a node-by-node fill give.

// bigDram is machine-dram at the size perfbench's bigrun runs it: 4 nodes
// of 2 Mi words (64 MiB in all), a 655 360-word triad per node.
func bigDram(t testing.TB, rp int) Scenario {
	t.Helper()
	s := MustFind("machine-dram")
	if err := SetField(&s, "updates", 655360); err != nil {
		t.Fatal(err)
	}
	if err := SetField(&s, "memwords", 2097152); err != nil {
		t.Fatal(err)
	}
	s.Machine.RunParallel = rp
	return s
}

// drainMemPool empties isa's node-memory pool: sync.Pool drops what it
// holds over two collections, so the next machine is freshly allocated.
func drainMemPool() {
	runtime.GC()
	runtime.GC()
}

// TestMachinePooledRunsMatchFresh runs machine-dram, machine-treesum at
// the same memwords and machine-dram again in one process. The later
// runs take the memory the earlier ones released, dirty (treesum's
// accumulator lies inside the triad's A vector), and each must still
// give what it gives on a fresh, never-pooled machine.
func TestMachinePooledRunsMatchFresh(t *testing.T) {
	const memWords = 65536
	dram := MustFind("machine-dram")
	tree := MustFind("machine-treesum")
	for _, s := range []*Scenario{&dram, &tree} {
		if err := SetField(s, "memwords", memWords); err != nil {
			t.Fatal(err)
		}
		s.Machine.N = 4
		s.Machine.RunParallel = 2
	}
	if err := SetField(&dram, "updates", 8192); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 2004}
	fresh := make(map[string]Result)
	for _, s := range []Scenario{dram, tree} {
		drainMemPool()
		r, err := Run(s, "machine", cfg)
		if err != nil {
			t.Fatalf("%s fresh: %v", s.Name, err)
		}
		fresh[s.Name] = r
	}
	for i, s := range []Scenario{dram, tree, dram} {
		r, err := Run(s, "machine", cfg)
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, s.Name, err)
		}
		if !reflect.DeepEqual(r.Metrics, fresh[s.Name].Metrics) {
			t.Errorf("run %d (%s) on pooled memory:\n got %v\nwant %v", i, s.Name, r.Metrics, fresh[s.Name].Metrics)
		}
	}
}

// stagedMachine builds s's machine at RunParallel rp and stages its
// program, without running it.
func stagedMachine(t *testing.T, s Scenario, rp int, cfg Config) (*isa.Machine, machineWork) {
	t.Helper()
	m, err := isa.NewMachine(s.Machine.N, s.machineMemWords(), s.machineTiming())
	if err != nil {
		t.Fatal(err)
	}
	m.Parallelism = rp
	work, err := stageMachineProgram(m, s, cfg, s.effectiveUpdates(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return m, work
}

// sequentialFill is the node-by-node fill the per-node staging replaces,
// kept as its oracle: one SplitMix64 stream drawn through node 0's words,
// then node 1's, and so on, each node's draws written to its regions in
// turn (shift each draw right by shift). It returns the sum of the draws.
func sequentialFill(m *isa.Machine, seed uint64, shift uint, regions []uint64, words int) uint64 {
	sm := rng.SplitMix64{State: seed ^ 0x6d616368696e65}
	var sum uint64
	for _, n := range m.Nodes {
		for k := 0; k < words; k++ {
			for _, base := range regions {
				v := sm.Next() >> shift
				n.Mem[base+uint64(k)] = v
				sum += v
			}
		}
	}
	return sum
}

// TestMachineStagingMatchesSequentialFill holds the per-node staging's
// memory image, at RunParallel 1, 2 and 4, to sequentialFill on a
// machine with the same program loaded; and treesum's expected total to
// the oracle's sum, through its verify.
func TestMachineStagingMatchesSequentialFill(t *testing.T) {
	cfg := Config{Seed: 77}
	triad := MustFind("machine-dram")
	if err := SetField(&triad, "updates", 2048); err != nil {
		t.Fatal(err)
	}
	words := roundUpWide(2048)
	triadLayout := isa.TriadLayout{A: 8192, B: 8192 + uint64(words), C: 8192 + 2*uint64(words), Words: words}
	tree := MustFind("machine-treesum")
	treeLayout := isa.DefaultTreeSumLayout()
	treeLayout.DataWords = roundUpWide(tree.effectiveUpdates(cfg))

	triadProg, err := isa.StreamTriadProgram(triadLayout)
	if err != nil {
		t.Fatal(err)
	}
	treeProg, err := isa.TreeSumProgram(tree.Machine.N, treeLayout)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(s Scenario, p *isa.Program) *isa.Machine {
		m, err := isa.NewMachine(s.Machine.N, s.machineMemWords(), s.machineTiming())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadAll(p); err != nil {
			t.Fatal(err)
		}
		return m
	}
	wantTriad := oracle(triad, triadProg)
	sequentialFill(wantTriad, cfg.Seed, 32, []uint64{triadLayout.A, triadLayout.B}, words)
	wantTree := oracle(tree, treeProg)
	wantSum := sequentialFill(wantTree, cfg.Seed, 40, []uint64{treeLayout.DataBase}, treeLayout.DataWords)

	for _, rp := range []int{1, 2, 4} {
		for _, c := range []struct {
			s    Scenario
			want *isa.Machine
		}{{triad, wantTriad}, {tree, wantTree}} {
			m, _ := stagedMachine(t, c.s, rp, cfg)
			for i, n := range m.Nodes {
				if !slices.Equal(n.Mem, c.want.Nodes[i].Mem) {
					t.Errorf("%s RunParallel %d: node %d's staged memory differs from the node-by-node fill",
						c.s.Name, rp, i)
				}
			}
		}
		m, work := stagedMachine(t, tree, rp, cfg)
		m.Nodes[0].Mem[treeLayout.AccAddr] = wantSum
		if err := work.verify(m); err != nil {
			t.Errorf("RunParallel %d: treesum verify rejects the oracle's total: %v", rp, err)
		}
		m.Nodes[0].Mem[treeLayout.AccAddr] = wantSum + 1
		if err := work.verify(m); err == nil {
			t.Errorf("RunParallel %d: treesum verify accepts the oracle's total + 1", rp)
		}
	}
}

// TestMachineTriadVerifyNamesLowestNode corrupts node 3's word 5 and node
// 2's word 700 of a completed C = A + B: at every RunParallel, verify
// names node 2's word, as a node-by-node scan does.
func TestMachineTriadVerifyNamesLowestNode(t *testing.T) {
	s := MustFind("machine-dram")
	if err := SetField(&s, "updates", 1024); err != nil {
		t.Fatal(err)
	}
	const words = 1024
	a, b, c := uint64(8192), uint64(8192+words), uint64(8192+2*words)
	for _, rp := range []int{1, 2, 4} {
		m, work := stagedMachine(t, s, rp, Config{Seed: 5})
		for _, n := range m.Nodes {
			for k := uint64(0); k < words; k++ {
				n.Mem[c+k] = n.Mem[a+k] + n.Mem[b+k]
			}
		}
		if err := work.verify(m); err != nil {
			t.Fatalf("RunParallel %d: verify rejects a correct C: %v", rp, err)
		}
		m.Nodes[3].Mem[c+5]++
		m.Nodes[2].Mem[c+700]++
		err := work.verify(m)
		if err == nil || !strings.Contains(err.Error(), "node 2 word 700") {
			t.Errorf("RunParallel %d: verify error %v, want node 2 word 700", rp, err)
		}
	}
}

// TestMachineDramWarmRunAllocs: once a machine-dram run at bigrun's size
// has released its 64 MiB of node memory, the next run takes it from the
// pool and allocates under a tenth of it. The race detector makes
// sync.Pool drop items on purpose, so the check is skipped there.
func TestMachineDramWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops released items at random under -race")
	}
	if testing.Short() {
		t.Skip("runs machine-dram at bigrun's size")
	}
	s := bigDram(t, 1)
	cfg := Config{Seed: 7}
	if _, err := Run(s, "machine", cfg); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(s, "machine", cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	const nodeMem = 4 * 2097152 * 8
	if got := res.AllocedBytesPerOp(); got >= nodeMem/10 {
		t.Errorf("warm machine-dram run allocates %d bytes, want under %d (a tenth of its node memory)",
			got, nodeMem/10)
	}
}

// BenchmarkMachineDramBig times one machine-dram run at bigrun's size,
// set-up, verify and release included, at RunParallel 1 and 2.
func BenchmarkMachineDramBig(b *testing.B) {
	for _, rp := range []int{1, 2} {
		b.Run(fmt.Sprintf("rp%d", rp), func(b *testing.B) {
			s := bigDram(b, rp)
			cfg := Config{Seed: 7}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(s, "machine", cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
