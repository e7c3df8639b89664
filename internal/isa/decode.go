package isa

import "fmt"

// This file is the pre-decoded dispatch layer. Load/LoadAll translate the
// program image into a dense slab of decoded-op structs (one decop per
// image word, operands unpacked, immediates pre-converted) so the issue
// loop (runNodeWindow in machine.go) switches on a dense opcode instead
// of re-running DecodeInstr on the instruction word every issued cycle.
// A PC outside the slab, and every issue of a traced run, decodes its
// word with decodeOp at issue and takes the same dispatch, so every op has
// one implementation: the hot ones (ALU, branches, LD/ST) inline in the
// issue loop, the rest in execDecoded.
//
// Self-modification guard: every ST/AMO/VADD that lands inside the
// node's program span re-decodes the patched word (NodeState.patch), so
// stores into code are visible to the very next fetch. Writes to
// NodeState.Mem made directly by host code (staging input data) must
// stay outside the program span or be followed by a re-Load.

// decop is one pre-decoded instruction, packed to 16 bytes so a typical
// inner loop's slab spans two cache lines. imm is the op-specific
// pre-converted immediate: the sign-extended addend for addi/ld/st, the
// pre-shifted result for lui, the absolute target for branches/jmp. The
// architectural immediate is not kept — the cold paths that need it
// (Trace, fault re-derivation) re-run DecodeInstr on the memory word.
type decop struct {
	op         Op
	rd, ra, rb uint8
	imm        uint64
}

// decodeOp pre-decodes one memory word. Undecodable words become
// OpInvalid entries; executing one re-derives DecodeInstr's fault.
func decodeOp(w uint64) decop {
	op := Op(w >> 56)
	if op == OpInvalid || op >= numOps {
		return decop{op: OpInvalid}
	}
	raw := int32(uint32(w&0xffffff)<<8) >> 8 // sign-extend 24 bits
	d := decop{
		op: op,
		rd: uint8(w>>52) & 0xf,
		ra: uint8(w>>48) & 0xf,
		rb: uint8(w>>44) & 0xf,
	}
	switch op {
	case OpAddi, OpLd, OpSt:
		d.imm = uint64(int64(raw))
	case OpLui:
		// Mask to the architectural 24 bits before shifting: a negative
		// immediate's sign-extension must not leak into bits 48-55.
		d.imm = uint64(uint32(raw)&0xffffff) << 24
	case OpBeq, OpBne, OpBlt, OpJmp:
		d.imm = uint64(raw) // sign-extends, as DecodeInstr does
	}
	return d
}

// predecode (re)builds the decoded slab for the span [base, base+span)
// of node memory, reusing the slab's backing array so Reset+Load re-runs
// allocate nothing once warm.
func (n *NodeState) predecode(base, span uint64) {
	n.progBase = base
	if uint64(cap(n.decoded)) < span {
		n.decoded = make([]decop, span)
	} else {
		n.decoded = n.decoded[:span]
	}
	for i := uint64(0); i < span; i++ {
		n.decoded[i] = decodeOp(n.Mem[base+i])
	}
}

// patch re-decodes one word after a VM store into the program span — the
// self-modification guard. Addresses outside the span are a single
// compare (the unsigned subtraction wraps below progBase).
func (n *NodeState) patch(addr uint64) {
	off := addr - n.progBase
	if off >= uint64(len(n.decoded)) {
		return
	}
	n.decoded[off] = decodeOp(n.Mem[addr])
}

// patchWide applies the self-modification guard to a wide store over
// [base, base+WideWords).
func (n *NodeState) patchWide(base uint64) {
	if base >= n.progBase+uint64(len(n.decoded)) || base+WideWords <= n.progBase {
		return
	}
	for i := uint64(0); i < WideWords; i++ {
		n.patch(base + i)
	}
}

// wideCheck bounds-checks a wide access [base, base+WideWords) without
// the base+WideWords-1 overflow wrap a near-max base would hit.
func (n *NodeState) wideCheck(pc, base uint64) error {
	if base >= uint64(len(n.Mem)) || WideWords > uint64(len(n.Mem))-base {
		return fmt.Errorf("isa: node %d pc %d: wide access [%d, +%d) out of %d",
			n.ID, pc, base, WideWords, len(n.Mem))
	}
	return nil
}

// execDecoded executes the cold op *d — halt, amoadd, vadd, vsum, spawn,
// nodeid, print, or an undecodable word — at t.PC, where
// t = &n.threads[ti]. The issue loop executes every other op inline. The
// issuing thread's t.stall is zero; a stalling op leaves its countdown
// there.
func (m *Machine) execDecoded(n *NodeState, t *Thread, d *decop, ti int) error {
	if d.op == OpInvalid {
		// Re-derive DecodeInstr's fault (before counters, as no
		// instruction issued).
		_, err := DecodeInstr(n.Mem[t.PC])
		return fmt.Errorf("isa: node %d pc %d: %w", n.ID, t.PC, err)
	}
	n.Instructions++
	regs := &t.Regs
	switch d.op {
	case OpHalt:
		t.done = true
		n.live--
		n.Completed++
		n.free = append(n.free, int32(ti))
		return nil
	case OpAmoAdd:
		addr := regs[d.ra]
		if addr >= uint64(len(n.Mem)) {
			return memFault(n, t.PC, addr)
		}
		v := n.Mem[addr]
		n.Mem[addr] = v + regs[d.rb]
		n.patch(addr)
		if d.rd != 0 {
			regs[d.rd] = v
		}
		t.stall = m.memCost(n, addr, false) - 1
		n.MemOps++
	case OpVAdd:
		dst, a, b := regs[d.rd], regs[d.ra], regs[d.rb]
		// wideCheck rather than a check of x+WideWords-1: the latter wraps
		// for near-uint64-max bases and would let the element loop index
		// out of range.
		if err := n.wideCheck(t.PC, dst); err != nil {
			return err
		}
		if err := n.wideCheck(t.PC, a); err != nil {
			return err
		}
		if err := n.wideCheck(t.PC, b); err != nil {
			return err
		}
		for i := uint64(0); i < WideWords; i++ {
			n.Mem[dst+i] = n.Mem[a+i] + n.Mem[b+i]
		}
		n.patchWide(dst)
		t.stall = m.memCost(n, dst, true) - 1
		n.WideOps++
	case OpVSum:
		a := regs[d.ra]
		if err := n.wideCheck(t.PC, a); err != nil {
			return err
		}
		var s uint64
		for i := uint64(0); i < WideWords; i++ {
			s += n.Mem[a+i]
		}
		if d.rd != 0 {
			regs[d.rd] = s
		}
		t.stall = m.memCost(n, a, true) - 1
		n.WideOps++
	case OpSpawn:
		dst := int(regs[d.ra])
		if dst < 0 || dst >= len(m.Nodes) {
			return fmt.Errorf("isa: node %d pc %d: spawn to node %d of %d",
				n.ID, t.PC, dst, len(m.Nodes))
		}
		m.sendParcel(n, dst, regs[d.rb], regs[d.rd])
		t.stall = m.spawnStall(n)
		n.Spawns++
	case OpNodeID:
		if d.rd != 0 {
			regs[d.rd] = uint64(n.ID)
		}
	case OpPrint:
		if m.Output != nil {
			m.events = append(m.events, hookEvent{cycle: m.cycle, node: n.ID, word: regs[d.ra], out: true})
		}
	default:
		return fmt.Errorf("isa: node %d pc %d: unimplemented op %v", n.ID, t.PC, d.op)
	}
	t.PC++
	return nil
}

// memFault is the out-of-range memory access fault.
func memFault(n *NodeState, pc, addr uint64) error {
	return fmt.Errorf("isa: node %d pc %d: memory access %d out of %d",
		n.ID, pc, addr, len(n.Mem))
}
