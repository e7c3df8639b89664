package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	err := quick.Check(func(opRaw, rd, ra, rb uint8, immRaw int32) bool {
		in := Instr{
			Op:  Op(opRaw%uint8(numOps-1)) + 1, // skip OpInvalid
			Rd:  rd % NumRegs,
			Ra:  ra % NumRegs,
			Rb:  rb % NumRegs,
			Imm: (immRaw << 8) >> 8, // 24-bit signed
		}
		out, err := DecodeInstr(in.Encode())
		if err != nil || out != in {
			return false
		}
		// Canonical zeroes exactly the fields outside the operand
		// syntax and is idempotent.
		c := out.Canonical()
		return c.Canonical() == c && c.Encode() == c.Canonical().Encode()
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsUnknownOpcode(t *testing.T) {
	if _, err := DecodeInstr(uint64(numOps) << 56); err == nil {
		t.Error("unknown opcode accepted")
	}
}

func TestImmSignExtension(t *testing.T) {
	in := Instr{Op: OpAddi, Rd: 1, Imm: -5}
	out, err := DecodeInstr(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Imm != -5 {
		t.Errorf("imm = %d, want -5", out.Imm)
	}
}

func assemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAssembleBasics(t *testing.T) {
	p := assemble(t, `
start:
    addi r1, r0, 42      ; the answer
    addi r2, r0, 0x10    # hex immediate
    add  r3, r1, r2
    halt
`)
	if len(p.Words) != 4 {
		t.Fatalf("words = %d", len(p.Words))
	}
	if a, _ := p.Entry("start"); a != 0 {
		t.Errorf("start = %d", a)
	}
	in, err := DecodeInstr(p.Words[0])
	if err != nil || in.Op != OpAddi || in.Rd != 1 || in.Imm != 42 {
		t.Errorf("first instr = %+v, %v", in, err)
	}
}

func TestAssembleLabelsAndBranches(t *testing.T) {
	p := assemble(t, `
    addi r1, r0, 3
loop:
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
`)
	in, err := DecodeInstr(p.Words[2])
	if err != nil || in.Op != OpBne {
		t.Fatalf("bne decode: %+v %v", in, err)
	}
	if in.Imm != 1 {
		t.Errorf("branch target = %d, want 1", in.Imm)
	}
}

func TestAssembleDirectives(t *testing.T) {
	p := assemble(t, `
    jmp main
    .org 10
data:
    .word 7
    .word data
    .org 20
main:
    halt
`)
	if p.Origin != 0 {
		t.Errorf("origin = %d", p.Origin)
	}
	if p.Words[10] != 7 {
		t.Errorf("data word = %d", p.Words[10])
	}
	if p.Words[11] != 10 {
		t.Errorf("label word = %d, want 10", p.Words[11])
	}
	if a, _ := p.Entry("main"); a != 20 {
		t.Errorf("main = %d", a)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",                   // unknown mnemonic
		"add r1, r2",                     // wrong arity
		"add r99, r0, r0",                // bad register
		"jmp nowhere",                    // undefined label
		"dup: addi r1, r0, 1\ndup: halt", // duplicate label
		"",                               // empty program
		"addi r1, r0, zz",                // bad immediate
	}
	for i, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("case %d assembled: %q", i, src)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
entry:
    addi r1, r0, 5
    ld   r2, r1, 3
    vadd r1, r2, r3
    halt
`
	p := assemble(t, src)
	dis := Disassemble(p)
	for _, want := range []string{"entry:", "addi r1, r0, 5", "ld r2, r1, 3", "vadd r1, r2, r3", "halt"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

// runProgram assembles src, loads it on a machine of n nodes, starts one
// thread at "main" on node 0, and runs to completion.
func runProgram(t *testing.T, src string, n int) *Machine {
	t.Helper()
	p := assemble(t, src)
	timing := DefaultTiming()
	timing.NetLatency = 10
	m, err := NewMachine(n, 4096, timing)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(p); err != nil {
		t.Fatal(err)
	}
	entry, err := p.Entry("main")
	if err != nil {
		t.Fatal(err)
	}
	m.Nodes[0].StartThread(entry, 0, 0)
	m.MaxCycles = 1_000_000
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArithmeticProgram(t *testing.T) {
	m := runProgram(t, `
main:
    addi r1, r0, 6
    addi r2, r0, 7
    mul  r3, r1, r2
    addi r4, r0, 100
    st   r3, r4, 0
    halt
`, 1)
	if got := m.Nodes[0].Mem[100]; got != 42 {
		t.Errorf("mem[100] = %d, want 42", got)
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 1..10 into mem[200].
	m := runProgram(t, `
main:
    addi r1, r0, 10    ; i
    addi r2, r0, 0     ; acc
loop:
    add  r2, r2, r1
    addi r1, r1, -1
    bne  r1, r0, loop
    addi r3, r0, 200
    st   r2, r3, 0
    halt
`, 1)
	if got := m.Nodes[0].Mem[200]; got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestMemoryStallTiming(t *testing.T) {
	// A single ld on an otherwise empty machine: cycles ≈ instr + stall.
	m := runProgram(t, `
main:
    addi r1, r0, 50
    ld   r2, r1, 0
    halt
`, 1)
	// 3 instructions; the ld adds MemCycles-1 stall cycles.
	want := int64(3) + DefaultTiming().MemCycles - 1
	if m.Nodes[0].BusyCycles != want {
		t.Errorf("busy cycles = %d, want %d", m.Nodes[0].BusyCycles, want)
	}
}

func TestWideOps(t *testing.T) {
	src := `
main:
    addi r1, r0, 512    ; A
    addi r2, r0, 520    ; B
    addi r3, r0, 528    ; C = A + B
    vadd r3, r1, r2
    vsum r4, r3
    addi r5, r0, 600
    st   r4, r5, 0
    halt
`
	p := assemble(t, src)
	m, err := NewMachine(1, 4096, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < WideWords; i++ {
		m.Nodes[0].Mem[512+i] = uint64(i + 1)  // 1..8
		m.Nodes[0].Mem[520+i] = uint64(10 * i) // 0,10..70
	}
	entry, _ := p.Entry("main")
	m.Nodes[0].StartThread(entry, 0, 0)
	m.MaxCycles = 10000
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// sum(1..8) + sum(0,10..70) = 36 + 280 = 316.
	if got := m.Nodes[0].Mem[600]; got != 316 {
		t.Errorf("vsum = %d, want 316", got)
	}
	if m.Nodes[0].WideOps != 2 {
		t.Errorf("wide ops = %d", m.Nodes[0].WideOps)
	}
}

func TestAmoAddAtomicity(t *testing.T) {
	// Many threads on one node AMO-adding into the same cell: exact total.
	src := `
main:
    addi r3, r0, 300   ; counter address
    addi r4, r0, 1
    amoadd r5, r3, r4
    halt
`
	p := assemble(t, src)
	m, err := NewMachine(1, 4096, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(p); err != nil {
		t.Fatal(err)
	}
	entry, _ := p.Entry("main")
	const threads = 40
	for i := 0; i < threads; i++ {
		m.Nodes[0].StartThread(entry, 0, 0)
	}
	m.MaxCycles = 100000
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Nodes[0].Mem[300]; got != threads {
		t.Errorf("counter = %d, want %d", got, threads)
	}
}

func TestSpawnRemoteThread(t *testing.T) {
	// Node 0 spawns a thread on node 1 that stores its argument.
	src := `
main:
    addi r1, r0, 1      ; destination node
    lui  r2, 0
    addi r2, r2, remote ; entry address
    addi r3, r0, 77     ; argument
    spawn r3, r1, r2
    halt
remote:
    addi r4, r0, 400
    st   r1, r4, 0      ; r1 carries the argument
    halt
`
	p := assemble(t, src)
	m, err := NewMachine(2, 4096, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(p); err != nil {
		t.Fatal(err)
	}
	entry, _ := p.Entry("main")
	m.Nodes[0].StartThread(entry, 0, 0)
	m.MaxCycles = 100000
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Nodes[1].Mem[400]; got != 77 {
		t.Errorf("remote store = %d, want 77", got)
	}
	if m.Nodes[0].Spawns != 1 {
		t.Errorf("spawns = %d", m.Nodes[0].Spawns)
	}
}

func TestNetworkLatencyVisible(t *testing.T) {
	src := `
main:
    addi r1, r0, 1
    addi r2, r0, remote
    spawn r0, r1, r2
    halt
remote:
    halt
`
	run := func(lat int64) int64 {
		p := assemble(t, src)
		tm := DefaultTiming()
		tm.NetLatency = lat
		m, err := NewMachine(2, 1024, tm)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadAll(p); err != nil {
			t.Fatal(err)
		}
		entry, _ := p.Entry("main")
		m.Nodes[0].StartThread(entry, 0, 0)
		m.MaxCycles = 100000
		cycles, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	if fast, slow := run(10), run(1000); slow-fast < 900 {
		t.Errorf("latency not visible: fast=%d slow=%d", fast, slow)
	}
}

func TestMultithreadingHidesMemoryStalls(t *testing.T) {
	// One thread doing dependent loads leaves the pipeline stalled; many
	// threads interleave and finish the same total work in fewer cycles
	// per load: utilization rises with thread count.
	src := `
main:
    addi r3, r0, 64    ; loop count
    addi r4, r0, 900
loop:
    ld   r5, r4, 0
    addi r3, r3, -1
    bne  r3, r0, loop
    halt
`
	run := func(threads int) float64 {
		p := assemble(t, src)
		m, err := NewMachine(1, 2048, DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadAll(p); err != nil {
			t.Fatal(err)
		}
		entry, _ := p.Entry("main")
		for i := 0; i < threads; i++ {
			m.Nodes[0].StartThread(entry, 0, 0)
		}
		m.MaxCycles = 1_000_000
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		// Issue rate: instructions per cycle.
		return float64(m.Nodes[0].Instructions) / float64(m.Cycle())
	}
	ipc1 := run(1)
	ipc8 := run(8)
	if ipc8 < ipc1*1.5 {
		t.Errorf("multithreading did not lift issue rate: %g -> %g", ipc1, ipc8)
	}
	if ipc8 > 1.0001 {
		t.Errorf("issue rate %g exceeds single-issue bound", ipc8)
	}
}

func TestExecutionFaults(t *testing.T) {
	cases := []string{
		// PC runs off memory (no halt).
		"main:\n addi r1, r0, 1",
		// Bad memory access.
		"main:\n lui r1, 255\n ld r2, r1, 0\n halt",
		// Spawn to nonexistent node.
		"main:\n addi r1, r0, 9\n addi r2, r0, main\n spawn r0, r1, r2\n halt",
	}
	for i, src := range cases {
		p := assemble(t, src)
		m, err := NewMachine(2, 1024, DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadAll(p); err != nil {
			t.Fatal(err)
		}
		entry, _ := p.Entry("main")
		m.Nodes[0].StartThread(entry, 0, 0)
		m.MaxCycles = 100000
		if _, err := m.Run(); err == nil {
			t.Errorf("case %d: faulty program ran to completion", i)
		}
	}
}

func TestR0Hardwired(t *testing.T) {
	m := runProgram(t, `
main:
    addi r0, r0, 99    ; writes to r0 are dropped
    addi r1, r0, 1
    addi r2, r0, 100
    st   r1, r2, 0
    halt
`, 1)
	if got := m.Nodes[0].Mem[100]; got != 1 {
		t.Errorf("r0 not hardwired: mem[100] = %d", got)
	}
}

func TestPrintOutput(t *testing.T) {
	p := assemble(t, `
main:
    addi r1, r0, 123
    print r1
    halt
`)
	m, _ := NewMachine(1, 1024, DefaultTiming())
	var got []uint64
	m.Output = func(node int, v uint64) { got = append(got, v) }
	if err := m.LoadAll(p); err != nil {
		t.Fatal(err)
	}
	entry, _ := p.Entry("main")
	m.Nodes[0].StartThread(entry, 0, 0)
	m.MaxCycles = 1000
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 123 {
		t.Errorf("print output = %v", got)
	}
}

func TestTraceHookSeesEveryInstruction(t *testing.T) {
	p := assemble(t, `
main:
    addi r1, r0, 3
loop:
    addi r1, r1, -1
    bne r1, r0, loop
    halt
`)
	m, _ := NewMachine(1, 256, DefaultTiming())
	if err := m.LoadAll(p); err != nil {
		t.Fatal(err)
	}
	var traced int64
	var lastCycle int64
	m.Trace = func(cycle int64, node int, pc uint64, in Instr) {
		traced++
		if cycle < lastCycle {
			t.Error("trace cycles went backwards")
		}
		lastCycle = cycle
		if node != 0 {
			t.Errorf("trace node = %d", node)
		}
	}
	entry, _ := p.Entry("main")
	m.Nodes[0].StartThread(entry, 0, 0)
	m.MaxCycles = 1000
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if traced != m.Nodes[0].Instructions {
		t.Errorf("traced %d, executed %d", traced, m.Nodes[0].Instructions)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	p := assemble(t, "main:\n jmp main")
	m, _ := NewMachine(1, 64, DefaultTiming())
	if err := m.LoadAll(p); err != nil {
		t.Fatal(err)
	}
	entry, _ := p.Entry("main")
	m.Nodes[0].StartThread(entry, 0, 0)
	m.MaxCycles = 1000
	if _, err := m.Run(); err == nil {
		t.Error("infinite loop ran to completion")
	}
}

// TestStepCycleExact pins Step to one cycle: a lone thread running an
// addi chain retires exactly one instruction per Step, so after k Steps
// its PC and the node's instruction count are both k.
func TestStepCycleExact(t *testing.T) {
	const k = 12
	src := "main:\n" + strings.Repeat("    addi r1, r1, 1\n", k) + "    halt\n"
	m := mustMachine(t, src, 1)
	for i := int64(1); i <= k; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		n := m.Nodes[0]
		if n.Instructions != i || n.threads[0].PC != uint64(i) || m.Cycle() != i {
			t.Fatalf("after %d Steps: instructions=%d pc=%d cycle=%d, want %d each",
				i, n.Instructions, n.threads[0].PC, m.Cycle(), i)
		}
	}
}

func TestDeterministicMachine(t *testing.T) {
	run := func() int64 {
		m := runProgram(t, `
main:
    addi r1, r0, 1
    addi r2, r0, fan
    spawn r0, r1, r2
    spawn r0, r1, r2
    halt
fan:
    addi r3, r0, 300
    addi r4, r0, 1
    amoadd r5, r3, r4
    halt
`, 2)
		return m.Cycle()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic cycle counts: %d vs %d", a, b)
	}
}

func BenchmarkMachineIssue(b *testing.B) {
	src := `
main:
    addi r1, r0, 1000
loop:
    addi r1, r1, -1
    bne r1, r0, loop
    halt
`
	p, err := Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := NewMachine(1, 1024, DefaultTiming())
		if err := m.LoadAll(p); err != nil {
			b.Fatal(err)
		}
		entry, _ := p.Entry("main")
		m.Nodes[0].StartThread(entry, 0, 0)
		m.MaxCycles = 100000
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
