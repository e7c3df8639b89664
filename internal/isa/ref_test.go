package isa

import "fmt"

// This file is the reference interpreter the package tests hold the
// machine to: the cycle-by-cycle loop that defines the VM's semantics.
// Every cycle it delivers the parcels due, then each node in order scans
// its threads round-robin from the issue pointer — stalled threads tick
// down, the first ready one issues — and decodes and executes the
// instruction word at the thread's PC, calling Trace and Output as the
// instruction issues. Runs through Machine.Run (node-major windows,
// serial or parallel, pre-decoded dispatch, buffered hooks) must match it
// in every observable: cycle count, counters, memory, faults, and the
// hook streams.

// refRun runs m to completion on the reference interpreter, with Run's
// contract: until no thread is live and no parcel in flight, or the
// cycle limit. Cycles in which nothing issues anywhere are applied in
// bulk (fastForward), exactly as stepping them one by one would.
func refRun(m *Machine) (int64, error) {
	for {
		live := false
		for _, n := range m.Nodes {
			if n.live > 0 {
				live = true
				break
			}
		}
		if !live && len(m.inFlight) == 0 {
			return m.cycle, nil
		}
		if m.canceled() {
			return m.cycle, ErrCanceled
		}
		if lim := m.limit(); lim > 0 && m.cycle >= lim {
			return m.cycle, m.limitErr(lim)
		}
		issued, err := m.refStep()
		if err != nil {
			return m.cycle, err
		}
		if !issued {
			m.fastForward()
		}
	}
}

// refStep advances one cycle and reports whether any node issued an
// instruction.
func (m *Machine) refStep() (bool, error) {
	m.cycle++
	// Deliver parcels due this cycle, in send order.
	kept := m.inFlight[:0]
	for _, f := range m.inFlight {
		if f.arrive <= m.cycle {
			m.Nodes[f.node].StartThread(f.entry, f.arg, f.src)
		} else {
			kept = append(kept, f)
		}
	}
	m.inFlight = kept
	issued := false
	for _, n := range m.Nodes {
		ok, err := m.stepNode(n)
		if err != nil {
			return issued, err
		}
		issued = issued || ok
	}
	return issued, nil
}

// fastForward bulk-applies the cycles up to (but not including) the next
// cycle on which anything can issue: stall expiries tick down, busy/idle
// counters advance, the clock jumps. The caller guarantees the current
// cycle issued nothing. The jump is capped at the run limit so
// exhaustion faults at the same cycle.
func (m *Machine) fastForward() {
	next := never
	for _, f := range m.inFlight {
		next = min(next, f.arrive)
	}
	for _, n := range m.Nodes {
		for i := range n.threads {
			if t := &n.threads[i]; !t.done {
				next = min(next, m.cycle+t.stall+1)
			}
		}
	}
	if next == never {
		return
	}
	delta := next - m.cycle - 1
	if lim := m.limit(); lim > 0 && m.cycle+delta > lim {
		delta = lim - m.cycle
	}
	if delta <= 0 {
		return
	}
	m.cycle += delta
	for _, n := range m.Nodes {
		if n.live == 0 {
			n.IdleCycles += delta
			continue
		}
		n.BusyCycles += delta
		for i := range n.threads {
			if t := &n.threads[i]; !t.done && t.stall > 0 {
				t.stall -= delta
			}
		}
	}
}

// stepNode issues at most one instruction on node n, reporting whether
// one issued. The scan recomputes each slot from the issue pointer,
// which moves as soon as a thread is chosen — the schedule runNodeWindow
// reproduces on its wake array.
func (m *Machine) stepNode(n *NodeState) (bool, error) {
	if n.live == 0 {
		n.IdleCycles++
		return false, nil
	}
	if len(n.threads) >= 64 && n.live*2 <= len(n.threads) {
		n.compact()
	}
	nThreads := len(n.threads)
	chosen := -1
	for i := 0; i < nThreads; i++ {
		idx := n.next + i
		if idx >= nThreads {
			idx -= nThreads
		}
		t := &n.threads[idx]
		if t.done {
			continue
		}
		if t.stall > 0 {
			t.stall--
			continue
		}
		if chosen < 0 {
			chosen = idx
			n.next = idx + 1
			if n.next >= nThreads {
				n.next = 0
			}
		}
	}
	// All live threads stalled counts busy (the bank is working).
	n.BusyCycles++
	if chosen < 0 {
		return false, nil
	}
	return true, m.executeInterp(n, chosen)
}

// executeInterp decodes the instruction word at the thread's PC and
// executes it.
func (m *Machine) executeInterp(n *NodeState, ti int) error {
	t := &n.threads[ti]
	if t.PC >= uint64(len(n.Mem)) {
		return fmt.Errorf("isa: node %d: PC %d out of memory", n.ID, t.PC)
	}
	in, err := DecodeInstr(n.Mem[t.PC])
	if err != nil {
		return fmt.Errorf("isa: node %d pc %d: %w", n.ID, t.PC, err)
	}
	if m.Trace != nil {
		m.Trace(m.cycle, n.ID, t.PC, in)
	}
	n.Instructions++
	pcNext := t.PC + 1
	rd := func() uint64 { return t.Regs[in.Rd] }
	ra := func() uint64 { return t.Regs[in.Ra] }
	rb := func() uint64 { return t.Regs[in.Rb] }
	set := func(r uint8, v uint64) {
		if r != 0 {
			t.Regs[r] = v
		}
	}
	mem := func(addr uint64) (uint64, error) {
		if addr >= uint64(len(n.Mem)) {
			return 0, fmt.Errorf("isa: node %d pc %d: memory access %d out of %d",
				n.ID, t.PC, addr, len(n.Mem))
		}
		return n.Mem[addr], nil
	}

	switch in.Op {
	case OpHalt:
		t.done = true
		n.live--
		n.Completed++
		n.free = append(n.free, int32(ti))
		return nil
	case OpAdd:
		set(in.Rd, ra()+rb())
	case OpSub:
		set(in.Rd, ra()-rb())
	case OpMul:
		set(in.Rd, ra()*rb())
	case OpAnd:
		set(in.Rd, ra()&rb())
	case OpOr:
		set(in.Rd, ra()|rb())
	case OpXor:
		set(in.Rd, ra()^rb())
	case OpShl:
		set(in.Rd, ra()<<(rb()&63))
	case OpShr:
		set(in.Rd, ra()>>(rb()&63))
	case OpAddi:
		set(in.Rd, ra()+uint64(int64(in.Imm)))
	case OpLui:
		// Mask the immediate to its architectural 24 bits before
		// shifting: Imm is sign-extended at decode, and the extension
		// bits must not leak into result bits 48-55.
		set(in.Rd, uint64(uint32(in.Imm)&0xffffff)<<24)
	case OpLd:
		addr := ra() + uint64(int64(in.Imm))
		v, err := mem(addr)
		if err != nil {
			return err
		}
		set(in.Rd, v)
		t.stall = m.memCost(n, addr, false) - 1
		n.MemOps++
	case OpSt:
		addr := ra() + uint64(int64(in.Imm))
		if _, err := mem(addr); err != nil {
			return err
		}
		n.Mem[addr] = rd()
		n.patch(addr)
		t.stall = m.memCost(n, addr, false) - 1
		n.MemOps++
	case OpBeq:
		if ra() == rb() {
			pcNext = uint64(in.Imm)
		}
	case OpBne:
		if ra() != rb() {
			pcNext = uint64(in.Imm)
		}
	case OpBlt:
		if ra() < rb() {
			pcNext = uint64(in.Imm)
		}
	case OpJmp:
		pcNext = uint64(in.Imm)
	case OpJr:
		pcNext = ra()
	case OpAmoAdd:
		addr := ra()
		v, err := mem(addr)
		if err != nil {
			return err
		}
		n.Mem[addr] = v + rb()
		n.patch(addr)
		set(in.Rd, v)
		t.stall = m.memCost(n, addr, false) - 1
		n.MemOps++
	case OpVAdd:
		d, a, b := rd(), ra(), rb()
		if err := n.wideCheck(t.PC, d); err != nil {
			return err
		}
		if err := n.wideCheck(t.PC, a); err != nil {
			return err
		}
		if err := n.wideCheck(t.PC, b); err != nil {
			return err
		}
		for i := uint64(0); i < WideWords; i++ {
			n.Mem[d+i] = n.Mem[a+i] + n.Mem[b+i]
		}
		n.patchWide(d)
		t.stall = m.memCost(n, d, true) - 1
		n.WideOps++
	case OpVSum:
		a := ra()
		if err := n.wideCheck(t.PC, a); err != nil {
			return err
		}
		var s uint64
		for i := uint64(0); i < WideWords; i++ {
			s += n.Mem[a+i]
		}
		set(in.Rd, s)
		t.stall = m.memCost(n, a, true) - 1
		n.WideOps++
	case OpSpawn:
		dst := int(ra())
		if dst < 0 || dst >= len(m.Nodes) {
			return fmt.Errorf("isa: node %d pc %d: spawn to node %d of %d",
				n.ID, t.PC, dst, len(m.Nodes))
		}
		m.sendParcel(n, dst, rb(), rd())
		t.stall = m.spawnStall(n)
		n.Spawns++
	case OpNodeID:
		set(in.Rd, uint64(n.ID))
	case OpPrint:
		if m.Output != nil {
			m.Output(n.ID, ra())
		}
	default:
		return fmt.Errorf("isa: node %d pc %d: unimplemented op %v", n.ID, t.PC, in.Op)
	}
	t.PC = pcNext
	return nil
}
