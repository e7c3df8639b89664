package isa

import (
	"fmt"

	"repro/internal/gang"
)

// This file is the conservative time-windowed parallel executor — the
// PDES mode of the machine. runWindowed already proved that inside a
// window of lookahead+1 cycles the nodes cannot interact: a cross-node
// parcel launched at cycle c arrives no earlier than c+lookahead+1, past
// the window's last cycle. runParallel exploits exactly that proof for
// concurrency: partition the nodes across P workers, run every
// partition's window concurrently, and exchange the window's parcels
// only at the barrier, merged into the destination partitions' arrival
// queues in canonical (sent, src) order. Because no worker can observe
// another inside a window and the barrier merge is a deterministic
// function of the flights alone, every counter, memory word, fault,
// cycle count and hook call is byte-identical to serial execution — for
// any worker count and any partition assignment.
//
// Each worker owns a shallow Machine view: the shared (read-only) Nodes
// slice plus private cycle/inFlight/events state, so the one issue loop
// (runNodeWindow) runs unchanged on a partition-local arrival queue. The
// workers buffer hook events; the coordinator replays them at the
// barrier.

// parWorker is one partition of a parallel run.
type parWorker struct {
	// vm is the worker's shallow Machine view: shared Nodes/Timing/
	// NetDelay, private clock, queues and hook-event buffer.
	vm Machine
	// nodes is this partition's node set, in ascending node order (the
	// serial iteration order, which error reduction depends on).
	nodes []*NodeState
	// queue is the partition-local arrival queue, always in canonical
	// (sent, src) order; sends the partition launches during a window are
	// appended behind it and pulled out at the barrier.
	queue []flight

	// Per-window results, read by the coordinator after the barrier.
	lastIssue int64
	errCycle  int64
	errNode   int
	err       error
}

// runWindow executes one window over the partition's nodes, keeping the
// first fault in (cycle, node) order — the same tie-break the serial
// node-major loop applies.
func (w *parWorker) runWindow(ws, we int64) {
	w.lastIssue, w.err = 0, nil
	w.vm.inFlight = w.queue
	for _, n := range w.nodes {
		last, errCycle, err := w.vm.runNodeWindow(n, ws, we)
		if err != nil && (w.err == nil || errCycle < w.errCycle) {
			w.err, w.errCycle, w.errNode = err, errCycle, n.ID
		}
		if last > w.lastIssue {
			w.lastIssue = last
		}
	}
	w.queue = w.vm.inFlight
}

// partitions resolves the node->worker assignment: Partition when set,
// else contiguous balanced blocks. owner maps node index -> worker.
func (m *Machine) partitions() (parts [][]*NodeState, owner []int, err error) {
	p := m.Parallelism
	owner = make([]int, len(m.Nodes))
	if m.Partition != nil {
		if len(m.Partition) != len(m.Nodes) {
			return nil, nil, fmt.Errorf("isa: Partition has %d entries for %d nodes",
				len(m.Partition), len(m.Nodes))
		}
		parts = make([][]*NodeState, p)
		for i, w := range m.Partition {
			if w < 0 || w >= p {
				return nil, nil, fmt.Errorf("isa: Partition[%d] = %d outside [0, %d)", i, w, p)
			}
			parts[w] = append(parts[w], m.Nodes[i])
			owner[i] = w
		}
		return parts, owner, nil
	}
	if p > len(m.Nodes) {
		p = len(m.Nodes)
	}
	parts = make([][]*NodeState, p)
	for i, n := range m.Nodes {
		w := i * p / len(m.Nodes)
		parts[w] = append(parts[w], n)
		owner[i] = w
	}
	return parts, owner, nil
}

// runParallel is Run's multi-worker windowed loop. The caller (the Run
// gate) guarantees Parallelism > 1, more than one node, and a positive
// lookahead behind the window bound.
func (m *Machine) runParallel(window int64) (int64, error) {
	parts, owner, err := m.partitions()
	if err != nil {
		return m.cycle, err
	}
	workers := make([]*parWorker, len(parts))
	for i, nodes := range parts {
		workers[i] = &parWorker{
			vm: Machine{
				Nodes:        m.Nodes,
				Timing:       m.Timing,
				NetDelay:     m.NetDelay,
				NetLookahead: m.NetLookahead,
				MemDelay:     m.MemDelay,
				Fault:        m.Fault,
				Reliable:     m.Reliable,
				Trace:        m.Trace,
				Output:       m.Output,
			},
			nodes: nodes,
		}
	}
	// Route the pre-existing flight queue (already in canonical order) to
	// the destination partitions.
	for _, f := range m.inFlight {
		w := workers[owner[f.node]]
		w.queue = append(w.queue, f)
	}
	m.inFlight = m.inFlight[:0]
	// gather restores m.inFlight from the partition queues on the error
	// paths, best-effort (post-fault state is best-effort serially too).
	gather := func() {
		for _, w := range workers {
			for _, f := range w.queue {
				if f.node >= 0 {
					m.inFlight = append(m.inFlight, f)
				}
			}
		}
		insertionSortFlights(m.inFlight)
	}

	// One gang for the whole run: the coordinator drains partition 0's
	// window itself and a window costs one barrier round, not a spawn.
	var wstart, wend int64
	g := gang.New(len(workers), func(i int) { workers[i].runWindow(wstart, wend) })
	defer g.Close()

	var scratch []flight
	for {
		live := false
		for _, n := range m.Nodes {
			if n.live > 0 {
				live = true
				break
			}
		}
		if !live {
			pending := false
			for _, w := range workers {
				if len(w.queue) > 0 {
					pending = true
					break
				}
			}
			if !pending {
				return m.cycle, nil
			}
		}
		if m.canceled() {
			gather()
			return m.cycle, ErrCanceled
		}
		if lim := m.limit(); lim > 0 && m.cycle >= lim {
			// gather first so the error's in-flight count matches what the
			// serial paths report at the same cycle.
			gather()
			return m.cycle, m.limitErr(lim)
		}
		wstart = m.cycle + 1
		wend = wstart + window - 1
		if lim := m.limit(); lim > 0 && wend > lim {
			wend = lim
		}
		g.Run()

		// Reduce per-worker faults to the serial winner: first in
		// (cycle, node) order, as the ascending node-major loop reports.
		// The workers' hook events replay up to it.
		var (
			firstErr      error
			firstErrCycle int64
			firstErrNode  = len(m.Nodes)
			lastIssue     int64
		)
		for _, w := range workers {
			if w.err != nil && (firstErr == nil || w.errCycle < firstErrCycle ||
				(w.errCycle == firstErrCycle && w.errNode < firstErrNode)) {
				firstErr, firstErrCycle, firstErrNode = w.err, w.errCycle, w.errNode
			}
			if w.lastIssue > lastIssue {
				lastIssue = w.lastIssue
			}
			m.events = append(m.events, w.vm.events...)
			w.vm.events = w.vm.events[:0]
		}
		if firstErr != nil {
			m.replayHooks(firstErrCycle, firstErrNode)
			m.cycle = firstErrCycle
			gather()
			return m.cycle, firstErr
		}
		m.replayHooks(wend, firstErrNode)

		// Barrier merge: compact each partition queue (dropping delivered
		// tombstones), pull out the window's new sends, order them
		// canonically, and route them to the destination partitions. Old
		// queue entries all precede new sends in (sent, src) order, so
		// appending the sorted batch keeps every queue canonical.
		scratch = scratch[:0]
		for _, w := range workers {
			kept := w.queue[:0]
			for _, f := range w.queue {
				if f.node < 0 {
					continue
				}
				if f.sent >= wstart {
					scratch = append(scratch, f)
					continue
				}
				kept = append(kept, f)
			}
			w.queue = kept
		}
		insertionSortFlights(scratch)
		for _, f := range scratch {
			if f.arrive <= wend {
				m.cycle = wend
				gather()
				return m.cycle, fmt.Errorf(
					"isa: parcel %d->%d due at cycle %d survived the window ending %d: NetDelay below NetLookahead %d",
					f.src, f.node, f.arrive, wend, m.NetLookahead)
			}
			w := workers[owner[f.node]]
			w.queue = append(w.queue, f)
		}
		m.cycle = wend

		// If the machine finished inside the window, the run ended at the
		// final halt: roll back the idle cycles each node charged past it
		// (identical to runWindowed's completion rollback).
		done := true
		for _, n := range m.Nodes {
			if n.live > 0 {
				done = false
				break
			}
		}
		if done {
			for _, w := range workers {
				if len(w.queue) > 0 {
					done = false
					break
				}
			}
		}
		if done {
			for _, n := range m.Nodes {
				n.IdleCycles -= wend - lastIssue
			}
			m.cycle = lastIssue
			return m.cycle, nil
		}
	}
}
