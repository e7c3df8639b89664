package isa

import (
	"bytes"
	"fmt"
	"testing"
)

// Differential and regression tests for the pre-decoded dispatch layer
// (decode.go): Run must be observationally identical to the reference
// interpreter (refRun), which decodes the instruction word every cycle;
// the decoded slab must stay coherent under self-modifying code; and
// neither of the two interpreter bugs fixed alongside it (the wide-op
// bounds-check overflow wrap and the LUI immediate sign-extension leak)
// may come back.

// runBoth runs the same freshly-built machine twice — through Run
// ("decoded") and the reference interpreter ("interpretive") — and hands
// each run's machine to check.
func runBoth(t *testing.T, build func(t *testing.T) *Machine, check func(t *testing.T, m *Machine, err error)) {
	t.Helper()
	for _, mode := range []execMode{{"decoded", (*Machine).Run}, {"interpretive", refRun}} {
		t.Run(mode.name, func(t *testing.T) {
			m := build(t)
			_, err := mode.run(m)
			check(t, m, err)
		})
	}
}

// TestWideBoundsOverflowWrapFaults pins the crash fix: a wide op whose
// base is near uint64 max made the old bounds check (base+WideWords-1)
// wrap below the memory size, bypassing the fault path and panicking on
// the slab index. Both dispatch paths must return a clean fault.
func TestWideBoundsOverflowWrapFaults(t *testing.T) {
	for _, src := range []string{
		"main:\n    addi r1, r0, -1\n    vsum r2, r1\n    halt\n",
		"main:\n    addi r1, r0, -1\n    vadd r1, r1, r1\n    halt\n",
		"main:\n    addi r1, r0, -7\n    vsum r2, r1\n    halt\n",
	} {
		runBoth(t,
			func(t *testing.T) *Machine {
				m := mustMachine(t, src, 1)
				m.MaxCycles = 1000
				return m
			},
			func(t *testing.T, m *Machine, err error) {
				if err == nil {
					t.Errorf("wrapping wide access did not fault:\n%s", src)
				}
			})
	}
}

// TestLuiNegativeImmediate pins the encoding fix: LUI of a negative
// 24-bit immediate used to let the sign-extension bits leak into result
// bits 48-55. The architectural result is the 24 raw immediate bits
// shifted into bits 24-47, identically on both dispatch paths.
func TestLuiNegativeImmediate(t *testing.T) {
	src := "main:\n    lui r1, -1\n    lui r2, 4096\n    lui r3, -4096\n    halt\n"
	runBoth(t,
		func(t *testing.T) *Machine {
			m := mustMachine(t, src, 1)
			m.MaxCycles = 100
			return m
		},
		func(t *testing.T, m *Machine, err error) {
			if err != nil {
				t.Fatal(err)
			}
			regs := &m.Nodes[0].threads[0].Regs
			if want := uint64(0xffffff) << 24; regs[1] != want {
				t.Errorf("lui -1: r1 = %#x, want %#x", regs[1], want)
			}
			if want := uint64(4096) << 24; regs[2] != want {
				t.Errorf("lui 4096: r2 = %#x, want %#x", regs[2], want)
			}
			if want := uint64(0xffffff&-4096) << 24; regs[3] != want {
				t.Errorf("lui -4096: r3 = %#x, want %#x", regs[3], want)
			}
		})
}

// TestSelfModifyingStoreRepatches stores a replacement instruction word
// over a later slot of the program span and then executes it: the
// self-modification guard must re-decode the slab entry, so the decoded
// path sees the new instruction exactly like the interpretive one.
func TestSelfModifyingStoreRepatches(t *testing.T) {
	patch := Instr{Op: OpAddi, Rd: 3, Ra: 0, Imm: 7}.Encode()
	src := fmt.Sprintf(`
main:
    addi r1, r0, patch
    ld r2, r1, 0
    addi r4, r0, target
    st r2, r4, 0
target:
    addi r3, r0, 1
    halt
patch:
    .word %d
`, patch)
	runBoth(t,
		func(t *testing.T) *Machine {
			m := mustMachine(t, src, 1)
			m.MaxCycles = 1000
			return m
		},
		func(t *testing.T, m *Machine, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Nodes[0].threads[0].Regs[3]; got != 7 {
				t.Errorf("patched instruction not executed: r3 = %d, want 7", got)
			}
		})
}

// TestSelfModifyingAmoRepatches is the read-modify-write variant: AMOADD
// bumps an in-span instruction word's immediate field in place.
func TestSelfModifyingAmoRepatches(t *testing.T) {
	src := `
main:
    addi r1, r0, target
    addi r2, r0, 6
    amoadd r0, r1, r2
target:
    addi r3, r0, 1
    halt
`
	runBoth(t,
		func(t *testing.T) *Machine {
			m := mustMachine(t, src, 1)
			m.MaxCycles = 1000
			return m
		},
		func(t *testing.T, m *Machine, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Nodes[0].threads[0].Regs[3]; got != 7 {
				t.Errorf("amo-patched immediate not executed: r3 = %d, want 7", got)
			}
		})
}

// TestSelfModifyingWideClobberFaults overwrites a block of in-span words
// with a VADD whose operands produce undecodable opcodes, then jumps into
// the block: patchWide must invalidate the decoded entries so both paths
// fault identically instead of executing stale decodes.
func TestSelfModifyingWideClobberFaults(t *testing.T) {
	var data string
	for i := 0; i < WideWords; i++ {
		data += "    .word 0x7f00000000000000\n"
	}
	var hole string
	for i := 0; i < WideWords; i++ {
		hole += "    .word 0\n"
	}
	src := "main:\n    addi r1, r0, dst\n    addi r2, r0, srca\n" +
		"    vadd r1, r2, r2\n    jmp dst\ndst:\n" + hole + "srca:\n" + data
	var errs []string
	runBoth(t,
		func(t *testing.T) *Machine {
			m := mustMachine(t, src, 1)
			m.MaxCycles = 1000
			return m
		},
		func(t *testing.T, m *Machine, err error) {
			if err == nil {
				t.Fatal("jump into clobbered code did not fault")
			}
			errs = append(errs, err.Error())
		})
	if len(errs) == 2 && errs[0] != errs[1] {
		t.Errorf("fault diverged between paths:\ndecoded:      %s\ninterpretive: %s", errs[0], errs[1])
	}
}

// kernelBuilders constructs each builtin kernel (plus the parcel ping) as
// a fresh loaded machine at the given network latency — the corpus for
// the dispatch-equivalence property tests below.
func kernelBuilders(lat int64) map[string]func(t *testing.T) *Machine {
	timing := DefaultTiming()
	timing.NetLatency = lat
	return map[string]func(t *testing.T) *Machine{
		"treesum": func(t *testing.T) *Machine {
			t.Helper()
			layout := DefaultTreeSumLayout()
			prog, err := TreeSumProgram(8, layout)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(8, 16384, timing)
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
		"triad": func(t *testing.T) *Machine {
			t.Helper()
			layout := DefaultTriadLayout()
			prog, err := StreamTriadProgram(layout)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(1, 32768, timing)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadAll(prog); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < layout.Words; i++ {
				m.Nodes[0].Mem[layout.A+uint64(i)] = uint64(i)
				m.Nodes[0].Mem[layout.B+uint64(i)] = uint64(3 * i)
			}
			entry, err := prog.Entry("main")
			if err != nil {
				t.Fatal(err)
			}
			m.Nodes[0].StartThread(entry, 0, 0)
			m.MaxCycles = 10_000_000
			return m
		},
		"chase": func(t *testing.T) *Machine {
			t.Helper()
			const nodes, elems = 8, 24
			layout := DefaultChaseLayout()
			prog, err := DistributedChaseProgram(layout)
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
			type loc struct {
				node int
				addr uint64
			}
			chain := make([]loc, elems)
			for i := range chain {
				chain[i] = loc{node: (i * 5) % nodes, addr: uint64(0x400 + 2*i)}
			}
			for i, e := range chain {
				link := uint64(0)
				if i+1 < len(chain) {
					nxt := chain[i+1]
					link = ChaseLink(uint64(nxt.node), nxt.addr)
				}
				m.Nodes[e.node].Mem[e.addr] = link
				m.Nodes[e.node].Mem[e.addr+1] = uint64(i + 1)
			}
			entry, err := prog.Entry("chase")
			if err != nil {
				t.Fatal(err)
			}
			m.Nodes[chain[0].node].StartThread(entry, ChasePack(0, chain[0].addr), 0)
			m.MaxCycles = 10_000_000
			return m
		},
		"gups": func(t *testing.T) *Machine {
			t.Helper()
			layout := DefaultGUPSLayout()
			layout.Updates = 64
			prog, err := GUPSProgram(layout)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(2, 16384, timing)
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
				n.StartThread(entry, uint64(n.ID)*3+1, 0)
				n.StartThread(entry, uint64(n.ID)*3+2, 0)
			}
			m.MaxCycles = 10_000_000
			return m
		},
		"ping": func(t *testing.T) *Machine {
			t.Helper()
			prog, err := PingProgram(DefaultPingLayout(), 3)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(2, 16384, timing)
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
			m.Nodes[0].StartThread(entry, 3, 0)
			m.MaxCycles = 10_000_000
			return m
		},
	}
}

// TestDecodedTraceEquivalence is the trace property: with a Trace hook
// attached, Run and the reference interpreter must emit byte-identical
// trace streams — every (cycle, node, pc, instruction) tuple, in order —
// across all the builtin kernels.
func TestDecodedTraceEquivalence(t *testing.T) {
	trace := func(t *testing.T, build func(t *testing.T) *Machine, run func(*Machine) (int64, error)) []byte {
		t.Helper()
		m := build(t)
		var buf bytes.Buffer
		m.Trace = func(cycle int64, node int, pc uint64, in Instr) {
			fmt.Fprintf(&buf, "%d %d %d %v\n", cycle, node, pc, in)
		}
		if _, err := run(m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, build := range kernelBuilders(DefaultTiming().NetLatency) {
		t.Run(name, func(t *testing.T) {
			decoded := trace(t, build, (*Machine).Run)
			interp := trace(t, build, refRun)
			if len(decoded) == 0 {
				t.Fatal("empty trace")
			}
			if !bytes.Equal(decoded, interp) {
				t.Errorf("trace streams diverge (%d vs %d bytes)", len(decoded), len(interp))
			}
		})
	}
}

// TestDecodedRunEquivalence is the no-hook variant: the observable
// outcome of Run — cycle count, every per-node counter, and all of
// memory — must match the reference interpreter exactly, across kernels
// and network latencies.
func TestDecodedRunEquivalence(t *testing.T) {
	for _, lat := range []int64{0, 1, 200} {
		builders := kernelBuilders(lat)
		for name, build := range builders {
			t.Run(fmt.Sprintf("%s/lat%d", name, lat), func(t *testing.T) {
				decoded := runFingerprint(t, build(t))
				interp := runFingerprintWith(t, build(t), refRun)
				if decoded != interp {
					t.Errorf("run outcomes diverge:\n--- decoded ---\n%s--- interpretive ---\n%s", decoded, interp)
				}
			})
		}
	}
}

// TestDecodedStepZeroAllocs pins the decoded dispatch's allocation
// discipline: steady-state stepping through the slab allocates nothing.
func TestDecodedStepZeroAllocs(t *testing.T) {
	m := mustMachine(t, `
main:
    addi r1, r0, 64
loop:
    addi r2, r2, 3
    xor r3, r2, r1
    st r3, r0, 600
    ld r4, r0, 600
    addi r1, r1, -1
    bne r1, r0, loop
    jmp main
`, 1)
	stepN(t, m, 200) // warm every path
	if avg := testing.AllocsPerRun(100, func() { stepN(t, m, 50) }); avg != 0 {
		t.Errorf("decoded stepping allocates %v per run, want 0", avg)
	}
}

// TestPredecodeRebuildZeroAllocs pins the slab rebuild: Reset followed by
// a re-Load must reuse the decoded slab's backing array (and every other
// machine slab) without allocating once warm.
func TestPredecodeRebuildZeroAllocs(t *testing.T) {
	prog, err := Assemble("main:\n    addi r1, r0, 5\nloop:\n    addi r1, r1, -1\n    bne r1, r0, loop\n    halt\n")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(2, 2048, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	entry, err := prog.Entry("main")
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		m.Reset()
		if err := m.LoadAll(prog); err != nil {
			t.Fatal(err)
		}
		m.Nodes[0].StartThread(entry, 0, 0)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the slabs
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("Reset+Load rebuild allocates %v per run, want 0", avg)
	}
}
