// Package isa implements a lightweight-processor instruction set in the
// style of the PIM Lite / EXECUBE lineage the paper builds on (§2.2):
// a small RISC core bonded to a memory bank, fine-grain multithreading in
// the Tera/HEP tradition (Burton Smith, refs [29][30]), row-buffer-wide
// SIMD memory operations, and SPAWN — a parcel-send instruction that
// starts a thread at a code block on a remote node (message-driven
// computation, §4.1).
//
// The package provides the instruction encoding, a two-pass assembler for
// a textual assembly language, a disassembler, and (in machine.go) a
// deterministic cycle-driven multi-node interpreter with the Table 1
// timing parameters. Loaded program images are pre-decoded into per-node
// slabs (decode.go) for direct dispatch, with a self-modification guard
// that re-decodes entries clobbered by in-span stores; one node-window
// issue loop executes every run, serial or parallel, and the package
// tests hold it to a cycle-by-cycle reference interpreter.
//
// The parcel network can run under deterministic fault injection
// (Machine.Fault, an internal/fault plan): per-attempt drop, corruption,
// duplication, and delay jitter, per-node straggler slowdown, and a
// planned crash cycle. With Machine.Reliable the send path runs a
// seq/ack retransmit protocol whose every attempt's fate is resolved
// analytically at send time from the parcel's identity (sent cycle,
// source, sequence number) — never from execution order — so faulted
// runs stay byte-identical across the serial and parallel (PDES)
// execution paths; per-node counters and Machine.DeliveryStats expose
// the degradation.
package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Op is an opcode.
type Op uint8

// Opcodes. Values are part of the instruction encoding. Opcode 0 is
// deliberately invalid so that executing zeroed memory faults instead of
// silently halting.
const (
	// OpInvalid is the all-zeroes encoding; executing it is a fault.
	OpInvalid Op = iota
	// OpHalt ends the executing thread.
	OpHalt
	// OpAdd rd = ra + rb. OpSub, OpMul, OpAnd, OpOr, OpXor likewise.
	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	// OpShl rd = ra << (rb & 63); OpShr logical right shift.
	OpShl
	OpShr
	// OpAddi rd = ra + imm (sign-extended 24-bit immediate).
	OpAddi
	// OpLui rd = imm << 24 (load upper immediate).
	OpLui
	// OpLd rd = mem[ra + imm].
	OpLd
	// OpSt mem[ra + imm] = rd.
	OpSt
	// OpBeq if ra == rb jump to imm (absolute instruction address).
	OpBeq
	// OpBne if ra != rb jump to imm.
	OpBne
	// OpBlt if ra < rb (unsigned) jump to imm.
	OpBlt
	// OpJmp jump to imm.
	OpJmp
	// OpJr jump to address in ra.
	OpJr
	// OpAmoAdd rd = mem[ra]; mem[ra] += rb (atomic at the node).
	OpAmoAdd
	// OpVAdd wide add: mem[rd..rd+W) = mem[ra..ra+W) + mem[rb..rb+W).
	OpVAdd
	// OpVSum rd = sum of mem[ra..ra+W) (row-buffer-wide reduction).
	OpVSum
	// OpSpawn sends a parcel: start a thread at code address rb on node
	// ra, with argument rd delivered in the new thread's r1 (r2 = source
	// node id).
	OpSpawn
	// OpNodeID rd = this node's id.
	OpNodeID
	// OpPrint is a debug/output instruction: emits the value of ra to the
	// machine's output hook.
	OpPrint

	numOps
)

// WideWords is the width W of the wide (row-buffer) operations, in words.
// The paper's 2048-bit row with 256-bit page words gives 8.
const WideWords = 8

// MaxImageWords bounds the assembled image span (max address − min
// address). A stray .org far from the rest of the program would otherwise
// make pass 2 allocate the whole gap.
const MaxImageWords = 1 << 22

// opInfo describes an opcode's assembly syntax.
type opInfo struct {
	name string
	// operand kinds: 'd' dest reg, 'a' reg, 'b' reg, 'i' immediate/label
	operands string
}

var opTable = [numOps]opInfo{
	OpInvalid: {"", ""},
	OpHalt:    {"halt", ""},
	OpAdd:     {"add", "dab"},
	OpSub:     {"sub", "dab"},
	OpMul:     {"mul", "dab"},
	OpAnd:     {"and", "dab"},
	OpOr:      {"or", "dab"},
	OpXor:     {"xor", "dab"},
	OpShl:     {"shl", "dab"},
	OpShr:     {"shr", "dab"},
	OpAddi:    {"addi", "dai"},
	OpLui:     {"lui", "di"},
	OpLd:      {"ld", "dai"},
	OpSt:      {"st", "dai"},
	OpBeq:     {"beq", "abi"},
	OpBne:     {"bne", "abi"},
	OpBlt:     {"blt", "abi"},
	OpJmp:     {"jmp", "i"},
	OpJr:      {"jr", "a"},
	OpAmoAdd:  {"amoadd", "dab"},
	OpVAdd:    {"vadd", "dab"},
	OpVSum:    {"vsum", "da"},
	OpSpawn:   {"spawn", "dab"},
	OpNodeID:  {"nodeid", "d"},
	OpPrint:   {"print", "a"},
}

func (o Op) String() string {
	if int(o) < len(opTable) && opTable[o].name != "" {
		return opTable[o].name
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Instr is one decoded instruction.
type Instr struct {
	Op  Op
	Rd  uint8
	Ra  uint8
	Rb  uint8
	Imm int32 // 24-bit signed immediate (sign-extended)
}

// NumRegs is the architectural register count; r0 reads as zero.
const NumRegs = 16

// Encode packs the instruction into a memory word:
// op(8) | rd(4) | ra(4) | rb(4) | unused(12) | imm(24, two's complement)
func (in Instr) Encode() uint64 {
	imm := uint64(uint32(in.Imm)) & 0xffffff
	return uint64(in.Op)<<56 |
		uint64(in.Rd&0xf)<<52 |
		uint64(in.Ra&0xf)<<48 |
		uint64(in.Rb&0xf)<<44 |
		imm
}

// DecodeInstr unpacks an instruction word with fixed shift/mask
// extraction. Fields outside the opcode's operand syntax are don't-cares
// on the wire and come back as raw bits; Canonical zeroes them when
// fidelity matters (disassembly round trips).
func DecodeInstr(w uint64) (Instr, error) {
	op := Op(w >> 56)
	if op == OpInvalid || op >= numOps {
		return Instr{}, fmt.Errorf("isa: invalid opcode %d", uint8(op))
	}
	imm := int32(uint32(w&0xffffff)<<8) >> 8 // sign-extend 24 bits
	return Instr{
		Op:  op,
		Rd:  uint8(w>>52) & 0xf,
		Ra:  uint8(w>>48) & 0xf,
		Rb:  uint8(w>>44) & 0xf,
		Imm: imm,
	}, nil
}

// Canonical returns the instruction with every field outside its
// opcode's operand syntax zeroed — the form the textual rendering
// preserves, so canonical(w).Encode() round-trips through the
// disassembler exactly.
func (in Instr) Canonical() Instr {
	out := Instr{Op: in.Op}
	for _, k := range opTable[in.Op].operands {
		switch k {
		case 'd':
			out.Rd = in.Rd
		case 'a':
			out.Ra = in.Ra
		case 'b':
			out.Rb = in.Rb
		case 'i':
			out.Imm = in.Imm
		}
	}
	return out
}

// String disassembles the instruction.
func (in Instr) String() string {
	info := opTable[in.Op]
	parts := []string{}
	for _, k := range info.operands {
		switch k {
		case 'd':
			parts = append(parts, fmt.Sprintf("r%d", in.Rd))
		case 'a':
			parts = append(parts, fmt.Sprintf("r%d", in.Ra))
		case 'b':
			parts = append(parts, fmt.Sprintf("r%d", in.Rb))
		case 'i':
			parts = append(parts, strconv.Itoa(int(in.Imm)))
		}
	}
	if len(parts) == 0 {
		return info.name
	}
	return info.name + " " + strings.Join(parts, ", ")
}

// Program is an assembled code image plus its symbol table.
type Program struct {
	// Words are instruction/data words, loaded at address Origin.
	Words []uint64
	// Origin is the load address.
	Origin uint64
	// Labels maps label names to absolute addresses.
	Labels map[string]uint64
}

// Entry returns the address of the given label.
func (p *Program) Entry(label string) (uint64, error) {
	a, ok := p.Labels[label]
	if !ok {
		return 0, fmt.Errorf("isa: no label %q", label)
	}
	return a, nil
}

// Assemble translates assembly text into a Program. Syntax:
//
//	; comment            (also "#")
//	label:               (alone or before an instruction)
//	    addi r1, r0, 42
//	    ld   r2, r1, 8   ; rd, base, offset
//	    beq  r1, r2, done
//	    .org 100         ; set location counter
//	    .word 7          ; literal data word
//
// Immediates may be decimal, hex (0x...), or label references.
func Assemble(src string) (*Program, error) {
	type pending struct {
		lineNo int
		instr  Instr
		label  string // unresolved immediate label, if any
		isWord bool
		word   uint64
		addr   uint64
	}
	labels := map[string]uint64{}
	var items []pending
	lc := uint64(0)

	lines := strings.Split(src, "\n")
	for lineNo, raw := range lines {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly several) prefix the statement.
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			name := strings.TrimSpace(line[:idx])
			if !validLabel(name) {
				return nil, fmt.Errorf("isa: line %d: bad label %q", lineNo+1, name)
			}
			if _, dup := labels[name]; dup {
				return nil, fmt.Errorf("isa: line %d: duplicate label %q", lineNo+1, name)
			}
			labels[name] = lc
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}
		fields := splitOperands(line)
		mnemonic := strings.ToLower(fields[0])
		args := fields[1:]
		switch mnemonic {
		case ".org":
			if len(args) != 1 {
				return nil, fmt.Errorf("isa: line %d: .org takes one value", lineNo+1)
			}
			v, err := parseImm(args[0])
			if err != nil {
				return nil, fmt.Errorf("isa: line %d: %v", lineNo+1, err)
			}
			if v < 0 || v > MaxImageWords {
				return nil, fmt.Errorf("isa: line %d: .org %d out of [0, %d]", lineNo+1, v, MaxImageWords)
			}
			lc = uint64(v)
			continue
		case ".word":
			if len(args) != 1 {
				return nil, fmt.Errorf("isa: line %d: .word takes one value", lineNo+1)
			}
			v, err := parseWord(args[0])
			if err != nil {
				// Might be a label reference; resolve in pass 2.
				items = append(items, pending{lineNo: lineNo + 1, isWord: true, label: args[0], addr: lc})
				lc++
				continue
			}
			items = append(items, pending{lineNo: lineNo + 1, isWord: true, word: v, addr: lc})
			lc++
			continue
		}
		op, err := lookupOp(mnemonic)
		if err != nil {
			return nil, fmt.Errorf("isa: line %d: %v", lineNo+1, err)
		}
		info := opTable[op]
		if len(args) != len(info.operands) {
			return nil, fmt.Errorf("isa: line %d: %s takes %d operands, got %d",
				lineNo+1, info.name, len(info.operands), len(args))
		}
		in := Instr{Op: op}
		labelRef := ""
		for i, kind := range info.operands {
			arg := args[i]
			switch kind {
			case 'd', 'a', 'b':
				r, err := parseReg(arg)
				if err != nil {
					return nil, fmt.Errorf("isa: line %d: %v", lineNo+1, err)
				}
				switch kind {
				case 'd':
					in.Rd = r
				case 'a':
					in.Ra = r
				case 'b':
					in.Rb = r
				}
			case 'i':
				if v, err := parseImm(arg); err == nil {
					in.Imm = int32(v)
				} else if validLabel(arg) {
					labelRef = arg
				} else {
					return nil, fmt.Errorf("isa: line %d: bad immediate %q", lineNo+1, arg)
				}
			}
		}
		items = append(items, pending{lineNo: lineNo + 1, instr: in, label: labelRef, addr: lc})
		lc++
	}

	// Pass 2: resolve labels, lay out words. The image spans the minimum
	// to maximum emitted address.
	if len(items) == 0 {
		return nil, fmt.Errorf("isa: empty program")
	}
	origin := items[0].addr
	end := origin
	for _, it := range items {
		if it.addr < origin {
			origin = it.addr
		}
		if it.addr+1 > end {
			end = it.addr + 1
		}
	}
	if end-origin > MaxImageWords {
		return nil, fmt.Errorf("isa: image spans %d words (max %d)", end-origin, MaxImageWords)
	}
	words := make([]uint64, end-origin)
	for _, it := range items {
		if it.label != "" {
			target, ok := labels[it.label]
			if !ok {
				return nil, fmt.Errorf("isa: line %d: undefined label %q", it.lineNo, it.label)
			}
			if it.isWord {
				it.word = target
			} else {
				it.instr.Imm = int32(target)
			}
		}
		w := it.word
		if !it.isWord {
			w = it.instr.Encode()
		}
		words[it.addr-origin] = w
	}
	return &Program{Words: words, Origin: origin, Labels: labels}, nil
}

// Disassemble renders the program listing.
func Disassemble(p *Program) string {
	byAddr := map[uint64][]string{}
	for name, a := range p.Labels {
		byAddr[a] = append(byAddr[a], name)
	}
	var b strings.Builder
	for i, w := range p.Words {
		addr := p.Origin + uint64(i)
		for _, l := range byAddr[addr] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		if in, err := DecodeInstr(w); err == nil {
			fmt.Fprintf(&b, "  %4d: %s\n", addr, in)
		} else {
			fmt.Fprintf(&b, "  %4d: .word %d\n", addr, w)
		}
	}
	return b.String()
}

func stripComment(line string) string {
	for _, sep := range []string{";", "#"} {
		if i := strings.Index(line, sep); i >= 0 {
			line = line[:i]
		}
	}
	return line
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	// Register names are not labels.
	if _, err := parseReg(s); err == nil {
		return false
	}
	return true
}

// splitOperands splits "op a, b, c" into ["op", "a", "b", "c"].
func splitOperands(line string) []string {
	first := strings.Fields(line)
	if len(first) == 0 {
		return nil
	}
	mnemonic := first[0]
	rest := strings.TrimSpace(line[len(mnemonic):])
	if rest == "" {
		return []string{mnemonic}
	}
	parts := strings.Split(rest, ",")
	out := []string{mnemonic}
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func lookupOp(name string) (Op, error) {
	for op := OpHalt; op < numOps; op++ {
		if opTable[op].name == name {
			return op, nil
		}
	}
	return 0, fmt.Errorf("isa: unknown mnemonic %q", name)
}

func parseReg(s string) (uint8, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, fmt.Errorf("isa: bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("isa: bad register %q", s)
	}
	return uint8(n), nil
}

func parseImm(s string) (int64, error) {
	return strconv.ParseInt(s, 0, 32)
}

// parseWord parses a full 64-bit data word (.word accepts both signed
// decimals and wide hex constants).
func parseWord(s string) (uint64, error) {
	if u, err := strconv.ParseUint(s, 0, 64); err == nil {
		return u, nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, err
	}
	return uint64(v), nil
}
