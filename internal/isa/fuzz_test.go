package isa

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
)

// FuzzAsmRoundTrip feeds arbitrary text to the assembler. Anything that
// assembles must disassemble and re-assemble to the identical image:
// assemble(src) -> listing -> assemble(listing) == canonical image. The
// canonical form re-encodes decodable words so that junk in the unused
// instruction bits (possible via .word) doesn't count as a difference.
func FuzzAsmRoundTrip(f *testing.F) {
	seeds := []string{
		"main:\n    addi r1, r0, 42\n    halt\n",
		"main:\n    addi r1, r0, 3\nloop:\n    addi r1, r1, -1\n    bne r1, r0, loop\n    halt\n",
		"    jmp main\n    .org 10\ndata:\n    .word 7\n    .word data\n    .org 20\nmain:\n    halt\n",
		"main:\n    lui r2, 255\n    ld r3, r2, -8\n    st r3, r2, 0\n    vadd r1, r2, r3\n    vsum r4, r1\n    halt\n",
		"main:\n    nodeid r3\n    addi r5, r0, main\n    spawn r0, r3, r5\n    print r3\n    halt\n",
		"a: b: c: halt ; many labels\n.word 0x5851f42d4c957f2d\n",
		".org 100\nx:\n    amoadd r5, r3, r4\n    jr r5\n    beq r1, r2, x\n    blt r1, r2, x\n",
		// Negative LUI immediate: the sign-extension-leak reproducer. The
		// listing fixed point is what pins the encoding (Imm renders as
		// -1, re-assembles to the same masked word).
		"main:\n    lui r1, -1\n    halt\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := Assemble(src)
		if err != nil {
			return // rejected inputs just must not panic / OOM
		}
		// Disassemble must render every program without panicking.
		if Disassemble(p1) == "" && len(p1.Words) > 0 {
			t.Fatal("empty disassembly of a non-empty program")
		}
		listing := reassemblableListing(p1)
		p2, err := Assemble(listing)
		if err != nil {
			t.Fatalf("listing does not re-assemble: %v\n--- source ---\n%s\n--- listing ---\n%s", err, src, listing)
		}
		if p2.Origin != p1.Origin {
			t.Fatalf("origin changed: %d -> %d", p1.Origin, p2.Origin)
		}
		if len(p2.Words) != len(p1.Words) {
			t.Fatalf("image length changed: %d -> %d", len(p1.Words), len(p2.Words))
		}
		for i := range p1.Words {
			if p2.Words[i] != canonicalWord(p1.Words[i]) {
				t.Fatalf("word %d changed: %#x -> %#x (canonical %#x)\n--- listing ---\n%s",
					i, p1.Words[i], p2.Words[i], canonicalWord(p1.Words[i]), listing)
			}
		}
	})
}

// reassemblableListing renders a program as assembler input: one
// instruction or .word directive per line, prefixed by the origin. (The
// human-facing Disassemble listing carries address prefixes, so it is not
// itself valid input.)
func reassemblableListing(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".org %d\n", p.Origin)
	for _, w := range p.Words {
		if in, err := DecodeInstr(w); err == nil {
			fmt.Fprintf(&b, "%s\n", in)
		} else {
			fmt.Fprintf(&b, ".word %d\n", w)
		}
	}
	return b.String()
}

// canonicalWord re-encodes decodable words, zeroing the unused bits the
// textual rendering cannot carry.
func canonicalWord(w uint64) uint64 {
	if in, err := DecodeInstr(w); err == nil {
		return in.Canonical().Encode()
	}
	return w
}

// FuzzMachineExecute runs arbitrary words as a program image on two nodes
// through every execution path — the reference interpreter, serial
// windows, Parallelism 2 and 3, and a zero-rate fault plan — with Trace
// and Output hooks on, and once more serially without hooks (the only
// run that dispatches from the decoded slab: a traced run decodes every
// issue). Whatever the bytes, the paths must agree on the returned
// cycle, the error string, and the hook stream (which stops at a fault's
// issue); a run that completes or stops at the cycle limit must also
// agree on the full fingerprint. (After an execution fault the other
// node's state is best-effort: a windowed run may have stepped it past
// the fault cycle.) None may panic or run past MaxCycles.
func FuzzMachineExecute(f *testing.F) {
	good, _ := Assemble("main:\n addi r1, r0, 9\n st r1, r0, 100\n halt\n")
	if good != nil {
		var bs []byte
		for _, w := range good.Words {
			for i := 0; i < 8; i++ {
				bs = append(bs, byte(w>>(8*i)))
			}
		}
		f.Add(bs)
	}
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	// The wide-op bounds-wrap reproducer: a near-max base used to slip
	// past the base+WideWords-1 overflow and panic the VM.
	wrap, _ := Assemble("main:\n addi r1, r0, -1\n vsum r2, r1\n halt\n")
	if wrap != nil {
		var bs []byte
		for _, w := range wrap.Words {
			for i := 0; i < 8; i++ {
				bs = append(bs, byte(w>>(8*i)))
			}
		}
		f.Add(bs)
	}
	// A remote spawn, a print and a fault on the second node.
	cross, _ := Assemble("main:\n addi r3, r0, 1\n addi r5, r0, far\n spawn r3, r3, r5\n print r3\n halt\nfar:\n print r1\n ld r2, r1, -2\n halt\n")
	if cross != nil {
		var bs []byte
		for _, w := range cross.Words {
			for i := 0; i < 8; i++ {
				bs = append(bs, byte(w>>(8*i)))
			}
		}
		f.Add(bs)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 8*512 {
			return
		}
		words := make([]uint64, (len(raw)+7)/8)
		for i, b := range raw {
			words[i/8] |= uint64(b) << (8 * (i % 8))
		}
		prog := &Program{Words: words, Origin: 0}
		zeroFault := func(m *Machine) (int64, error) {
			plan, err := fault.New(fault.Config{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			m.Fault, m.Reliable = plan, true
			return m.Run()
		}
		modes := []execMode{
			{"ref", refRun},
			{"serial", (*Machine).Run},
			{"p2", parallelRun(2, false)},
			{"p3", parallelRun(3, false)},
			{"zero-fault", zeroFault},
			{"untraced", (*Machine).Run},
		}
		var want, wantHooks string
		for _, mode := range modes {
			m, err := NewMachine(2, 1024, DefaultTiming())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadAll(prog); err != nil {
				t.Fatal(err)
			}
			m.Nodes[0].StartThread(0, 0, 0)
			m.MaxCycles = 5000
			var b strings.Builder
			if mode.name != "untraced" {
				m.Trace = func(cycle int64, node int, pc uint64, in Instr) {
					fmt.Fprintf(&b, "%d %d %d %v\n", cycle, node, pc, in)
				}
				m.Output = func(node int, v uint64) { fmt.Fprintf(&b, "out %d %d\n", node, v) }
			}
			cycles, err := mode.run(m)
			if cycles > m.MaxCycles {
				t.Fatalf("%s ran to cycle %d past MaxCycles %d", mode.name, cycles, m.MaxCycles)
			}
			got := fmt.Sprintf("cycles=%d err=%v\n", cycles, err)
			if err == nil || strings.Contains(err.Error(), "exceeded") {
				got += fingerprint(m, cycles)
			}
			if mode.name == "ref" {
				want, wantHooks = got, b.String()
				continue
			}
			if got != want {
				t.Fatalf("%s diverges from the reference:\n--- %s ---\n%s--- ref ---\n%s", mode.name, mode.name, got, want)
			}
			if mode.name != "untraced" && b.String() != wantHooks {
				t.Fatalf("%s hook stream diverges from the reference:\n--- %s ---\n%s--- ref ---\n%s", mode.name, mode.name, b.String(), wantHooks)
			}
		}
	})
}
