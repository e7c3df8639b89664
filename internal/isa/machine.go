package isa

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/fault"
)

// ErrCanceled reports a run stopped early because Machine.Cancel returned
// true. Callers distinguish it from execution faults with errors.Is.
var ErrCanceled = errors.New("isa: run canceled")

// Timing parameterizes the cycle costs of the interpreter, in LWP cycles.
// Defaults follow Table 1's LWP figures (memory = TML/TLcycle = 6 LWP
// cycles) and the hardware-assisted parcel costs.
type Timing struct {
	// MemCycles is the cost of LD/ST/AMO (one word through the row
	// buffer).
	MemCycles int64
	// WideMemCycles is the cost of a wide (W-word) memory operation; with
	// a 2048-bit row one activation covers all W words, so the default
	// equals MemCycles.
	WideMemCycles int64
	// SpawnCycles is the local cost of creating and launching a parcel.
	SpawnCycles int64
	// NetLatency is the parcel flight time between distinct nodes.
	NetLatency int64
}

// DefaultTiming returns the Table-1-derived costs.
func DefaultTiming() Timing {
	return Timing{MemCycles: 6, WideMemCycles: 6, SpawnCycles: 2, NetLatency: 200}
}

// Validate checks the timing.
func (t Timing) Validate() error {
	if t.MemCycles <= 0 || t.WideMemCycles <= 0 || t.SpawnCycles < 0 || t.NetLatency < 0 {
		return fmt.Errorf("isa: invalid timing %+v", t)
	}
	return nil
}

// Thread is one hardware thread context. Threads live in a per-node value
// slab (no per-thread heap allocation); finished contexts are recycled
// through a free list, so steady-state spawn/halt churn allocates nothing.
type Thread struct {
	PC   uint64
	Regs [NumRegs]uint64
	// stall > 0 means the thread is paying a multi-cycle cost.
	stall int64
	done  bool
}

// flight is a parcel in transit. (sent, src) is a strict total order over
// flights — a node issues at most one instruction per cycle — and it is
// exactly the order a cycle-by-cycle schedule appends (and therefore
// delivers) them in. Every window barrier restores that order, so
// same-cycle deliveries at one node always replay that schedule.
type flight struct {
	arrive int64 // cycle of delivery
	sent   int64 // cycle the spawn issued
	node   int
	entry  uint64
	arg    uint64
	src    uint64
}

// hookEvent is one Trace or Output call, buffered during a window and
// replayed at its barrier.
type hookEvent struct {
	cycle int64
	node  int
	pc    uint64 // Trace: the issuing PC
	word  uint64 // Trace: the instruction word; Output: the printed value
	out   bool
}

// NodeState is one PIM node of the machine.
type NodeState struct {
	ID  int
	Mem []uint64
	// threads is the thread-context slab; issue is round-robin over it.
	// free holds recycled (halted) slots, live counts unfinished threads.
	threads []Thread
	free    []int32
	live    int
	next    int

	// decoded is the pre-decoded program slab covering node memory
	// [progBase, progBase+len(decoded)): built by Load, kept coherent
	// with VM stores by patch/patchWide, dropped by Reset. PCs outside
	// the span decode their word at issue.
	progBase uint64
	decoded  []decop

	// Counters.
	Instructions int64
	MemOps       int64
	WideOps      int64
	Spawns       int64
	BusyCycles   int64
	IdleCycles   int64
	Completed    int64

	// Parcel-delivery counters, live only on faulted runs (all zero when
	// Machine.Fault is nil). Every counter is attributed to the *sending*
	// node at send time — a pure function of that node's own instruction
	// stream — so parallel partitions never write another partition's
	// counters and the counts are identical across execution modes.
	ParcelsSent      int64 // remote spawns routed through the fault plan
	ParcelDrops      int64 // transmission attempts lost in the network
	ParcelCorrupts   int64 // attempts rejected by the receiver's CRC
	ParcelDups       int64 // duplicate frames (suppressed in reliable mode)
	ParcelRetries    int64 // reliable-mode retransmissions
	ParcelsDelivered int64 // parcels whose payload reached the destination
	ParcelsLost      int64 // parcels that never arrived (all attempts faulted)

	// seq numbers this node's outbound parcels, forming the canonical
	// fault identity (sent cycle, src, seq) together with the send cycle.
	seq uint64
}

// Load copies a program image into node memory and pre-decodes it into
// the node's decoded-op slab (see decode.go). Host code that pokes
// NodeState.Mem directly inside the program span afterwards must re-Load
// for the patch to be visible to the decoded dispatch.
func (n *NodeState) Load(p *Program) error {
	if p.Origin+uint64(len(p.Words)) > uint64(len(n.Mem)) {
		return fmt.Errorf("isa: program [%d, %d) exceeds node memory %d",
			p.Origin, p.Origin+uint64(len(p.Words)), len(n.Mem))
	}
	copy(n.Mem[p.Origin:], p.Words)
	n.predecode(p.Origin, uint64(len(p.Words)))
	return nil
}

// StartThread creates a thread at entry with r1 = arg, r2 = src, reusing a
// recycled context slot when one is free.
func (n *NodeState) StartThread(entry, arg, src uint64) {
	n.startThread(entry, arg, src)
}

// startThread is StartThread returning the slot index the thread landed
// in, for callers tracking readiness by slot (runNodeWindow).
func (n *NodeState) startThread(entry, arg, src uint64) int {
	var idx int
	if k := len(n.free); k > 0 {
		idx = int(n.free[k-1])
		n.free = n.free[:k-1]
		n.threads[idx] = Thread{}
	} else {
		idx = len(n.threads)
		n.threads = append(n.threads, Thread{})
	}
	t := &n.threads[idx]
	t.PC = entry
	t.Regs[1] = arg
	t.Regs[2] = src
	n.live++
	return idx
}

// Machine is a deterministic cycle-driven multi-node PIM interpreter: one
// instruction issue per node per cycle from the round-robin ready thread
// (fine-grain multithreading), memory/wide/parcel costs modeled as thread
// stalls, parcels delivered after a network latency.
type Machine struct {
	Nodes  []*NodeState
	Timing Timing
	// Output receives values from the print instruction (nil = dropped).
	// Like Trace, it is called at the barrier of the window the print
	// issued in, in (cycle, node) order, so it must not read machine
	// state: by then the machine has run to the end of the window.
	Output func(node int, value uint64)
	// Trace, when non-nil, observes every issued instruction — the
	// debugger/profiler hook. Calls arrive at each window barrier in
	// (cycle, node) order, the same stream on every execution path; the
	// hook must not read machine state (see Output). A traced run decodes
	// every issue from memory instead of dispatching from the decoded
	// slab, so it runs slower.
	Trace func(cycle int64, node int, pc uint64, in Instr)
	// NetDelay, when non-nil, supplies the parcel flight time between
	// distinct nodes instead of the flat Timing.NetLatency — the hook a
	// topology-aware interconnect (internal/network) plugs into.
	// Node-local spawns never consult it and stay free.
	NetDelay func(src, dst int) int64
	// MemDelay, when non-nil, supplies the cost of one memory operation
	// instead of the flat Timing.MemCycles/WideMemCycles — the hook a
	// row-buffer timing model (internal/dram) plugs into. Costs below one
	// cycle are clamped to one. Each node's calls arrive in that node's
	// cycle order on every execution path, but calls for different nodes
	// interleave differently per path and, with Parallelism > 1, run
	// concurrently. So the hook must read and write only state private to
	// the node it is called for (one DRAM bank per node, say).
	MemDelay func(node int, addr uint64, wide bool) int64
	// MaxCycles bounds Run (0 = no bound).
	MaxCycles int64
	// Parallelism, when > 1, runs the windows on that many workers under
	// a conservative time-windowed protocol (see runParallel): node
	// partitions advance in lockstep windows bounded by the network
	// lookahead and exchange parcels only at window barriers, in
	// canonical (sent, src) order. Every counter, memory word, fault,
	// cycle count and hook call is byte-identical to serial execution
	// regardless of the worker count or partition assignment. Runs with
	// no positive lookahead (see NetLookahead) ignore Parallelism and
	// execute serially.
	Parallelism int
	// Partition optionally assigns node i to worker Partition[i] in
	// [0, Parallelism); nil means contiguous balanced blocks. The
	// assignment only shapes load balance, never results.
	Partition []int
	// NetLookahead is the caller's promise that NetDelay(src, dst) >=
	// NetLookahead for every src != dst pair — the conservative lookahead
	// that bounds the execution window when a topology hook is installed.
	// 0 means unknown: the machine runs one-cycle windows, exact for any
	// non-negative NetDelay, rather than guess (a NetDelay below the
	// promise is caught at the first window barrier and reported as an
	// error). Ignored when NetDelay is nil (the flat Timing.NetLatency is
	// its own lookahead). The function must be pure: parallel workers call
	// it concurrently.
	NetLookahead int64
	// Fault, when non-nil, injects the plan's deterministic faults into
	// the run: parcel drop/corruption/duplication/jitter on the remote
	// spawn path, straggler cost scaling on memory and spawn stalls, and
	// a crash-at-cycle stop. Every decision is keyed by canonical parcel
	// identity (sent cycle, src, seq) or node index — never execution
	// order — so faulted runs keep the byte-identical-under-parallelism
	// guarantee. Jitter only adds latency, so declared lookaheads hold.
	Fault *fault.Plan
	// Cancel, when non-nil, is polled at window boundaries; once it
	// returns true the run stops with ErrCanceled (machine state is
	// best-effort, as on any mid-run fault). It must be safe to call from
	// the Run goroutine at any time — an atomic load or closed-channel
	// check, typically — and lets a watchdog or serving deadline actually
	// stop an abandoned run instead of leaking it.
	Cancel func() bool
	// Reliable selects the delivery protocol under an active fault plan.
	// True models a sequence-numbered ack/timeout/retransmit exchange:
	// the sender retries on an RTO timer until an attempt survives, the
	// receiver suppresses duplicates by sequence number, and programs
	// complete under loss (at degraded goodput, visible in the Parcel*
	// counters). False models fire-and-forget datagrams: a dropped or
	// corrupted parcel is simply lost and a duplicated one starts a
	// second payload thread. Ignored when Fault is nil.
	Reliable bool

	cycle    int64
	inFlight []flight
	// events buffers the current window's Trace/Output calls.
	events []hookEvent
	// sched is the issue loop's scratch for the node running its window.
	sched sched
	// maxWindow caps the window width in cycles (0 = windowCeiling);
	// tests shrink it to multiply barriers.
	maxWindow int64
}

// NewMachine creates n nodes with memWords words of memory each. Every
// node's memory is zero and exactly memWords long. It is a slab that an
// earlier machine handed back with Release when one of that length is
// free, else a fresh allocation; the two are indistinguishable. The
// machine owns its memory until Release, or until the garbage collector
// takes it when Release is never called.
func NewMachine(n int, memWords int, timing Timing) (*Machine, error) {
	if n <= 0 || memWords <= 0 {
		return nil, fmt.Errorf("isa: NewMachine(%d, %d)", n, memWords)
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Timing: timing, Nodes: make([]*NodeState, n)}
	pool := memPool(memWords, false)
	for i := range m.Nodes {
		m.Nodes[i] = &NodeState{ID: i, Mem: newMem(pool, memWords)}
	}
	return m, nil
}

// Cycle returns the current cycle count.
func (m *Machine) Cycle() int64 { return m.cycle }

// LoadAll loads the same program into every node (SPMD style).
func (m *Machine) LoadAll(p *Program) error {
	for _, n := range m.Nodes {
		if err := n.Load(p); err != nil {
			return err
		}
	}
	return nil
}

// Reset returns the machine to cycle zero — no threads, no parcels in
// flight, zeroed memory and counters — while keeping every allocated slab
// (thread contexts, flight queue, node memory), so a caller can re-load
// and re-run without reallocating.
func (m *Machine) Reset() {
	m.cycle = 0
	m.inFlight = m.inFlight[:0]
	m.events = m.events[:0]
	for _, n := range m.Nodes {
		clear(n.Mem)
		n.threads = n.threads[:0]
		n.free = n.free[:0]
		n.decoded = n.decoded[:0]
		n.progBase = 0
		n.live = 0
		n.next = 0
		n.Instructions, n.MemOps, n.WideOps, n.Spawns = 0, 0, 0, 0
		n.BusyCycles, n.IdleCycles, n.Completed = 0, 0, 0
		n.ParcelsSent, n.ParcelDrops, n.ParcelCorrupts, n.ParcelDups = 0, 0, 0, 0
		n.ParcelRetries, n.ParcelsDelivered, n.ParcelsLost = 0, 0, 0
		n.seq = 0
	}
}

// Run executes until no threads are live and no parcels are in flight, or
// until MaxCycles. It returns the cycle count and an error for execution
// faults (bad opcode, out-of-range memory) or cycle exhaustion.
//
// Run executes node-major in windows of at most lookahead+1 cycles (see
// runWindowed) — one cycle when no lookahead is known — on Parallelism
// workers when a positive lookahead allows (runParallel). Trace and
// Output are called at each window barrier in (cycle, node) order and
// must not read machine state. Cycle counts, counters, memory, faults
// and the hook streams are those of cycle-by-cycle execution on every
// path.
func (m *Machine) Run() (int64, error) {
	la, ok := m.lookahead()
	window := int64(1)
	if ok {
		window = la + 1
		if maxW := m.windowCap(); window > maxW || window < 1 {
			window = maxW
		}
	}
	if ok && la > 0 && m.Parallelism > 1 && len(m.Nodes) > 1 {
		return m.runParallel(window)
	}
	return m.runWindowed(window)
}

// canceled polls the Cancel hook.
func (m *Machine) canceled() bool { return m.Cancel != nil && m.Cancel() }

// Step advances the machine one cycle: a one-cycle window, with the
// hooks replayed at its end.
func (m *Machine) Step() error {
	_, err := m.window(m.cycle+1, m.cycle+1)
	return err
}

// runWindowed executes the machine node-major in windows of the given
// width: each node runs a whole window over its own threads and memory
// before the next node starts. Within one window the nodes cannot
// interact — a cross-node parcel launched at cycle c arrives no earlier
// than c+lookahead+1, past the window's last cycle — so per-node
// execution over the same cycle range is exactly the cycle-by-cycle
// interleaving, while the node's threads and memory stay cache-hot
// across the whole window. Node-local parcels (latency zero) are
// delivered inside the window by scanning the flights the node itself
// appended.
func (m *Machine) runWindowed(window int64) (int64, error) {
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
		lim := m.limit()
		if lim > 0 && m.cycle >= lim {
			return m.cycle, m.limitErr(lim)
		}
		wend := m.cycle + window
		if lim > 0 && wend > lim {
			wend = lim
		}
		lastIssue, err := m.window(m.cycle+1, wend)
		if err != nil {
			return m.cycle, err
		}
		// If the machine finished inside the window, the run ended at the
		// final halt: roll back the idle cycles each node charged past it.
		if len(m.inFlight) == 0 {
			done := true
			for _, n := range m.Nodes {
				if n.live > 0 {
					done = false
					break
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
}

// window runs every node over [wstart, wend] in node order and settles
// the barrier: the first fault in (cycle, node) order wins, the hook
// events up to it replay, delivered flights drop out of the queue, and
// the window's new parcels take their canonical (sent, src) place. It
// returns the last cycle any node issued at. Later-ordered nodes may
// have run past a fault cycle when it is reported; post-fault machine
// state is best-effort.
func (m *Machine) window(wstart, wend int64) (lastIssue int64, err error) {
	var errCycle int64
	errNode := len(m.Nodes)
	for _, n := range m.Nodes {
		last, ec, e := m.runNodeWindow(n, wstart, wend)
		if e != nil && (err == nil || ec < errCycle) {
			err, errCycle, errNode = e, ec, n.ID
		}
		lastIssue = max(lastIssue, last)
	}
	if err != nil {
		m.replayHooks(errCycle, errNode)
		m.cycle = errCycle
		return lastIssue, err
	}
	m.replayHooks(wend, errNode)
	// Drop delivered flights (tombstoned by runNodeWindow) and restore
	// canonical order over the window's new parcels, so same-cycle
	// deliveries at one node replay the cycle-by-cycle schedule even when
	// flight times differ per pair (NetDelay). Any surviving flight due
	// inside the window means a cross-node latency undercut the declared
	// lookahead — the window proof is void, so fault rather than silently
	// diverge.
	kept := m.inFlight[:0]
	for _, f := range m.inFlight {
		if f.node >= 0 {
			if f.arrive <= wend {
				m.cycle = wend
				return lastIssue, fmt.Errorf(
					"isa: parcel %d->%d due at cycle %d survived the window ending %d: NetDelay below NetLookahead %d",
					f.src, f.node, f.arrive, wend, m.NetLookahead)
			}
			kept = append(kept, f)
		}
	}
	m.inFlight = kept
	sortNewFlights(m.inFlight, wstart)
	m.cycle = wend
	return lastIssue, nil
}

// replayHooks calls Trace and Output for the window's buffered events in
// (cycle, node) order, stopping after the events of the issue at
// (cutCycle, cutNode) — a faulting issue's own trace still replays, as it
// precedes the fault. Each node buffers its events in cycle order and an
// issue's trace precedes its output, so a stable sort yields the
// cycle-by-cycle call order.
func (m *Machine) replayHooks(cutCycle int64, cutNode int) {
	if len(m.events) == 0 {
		return
	}
	slices.SortStableFunc(m.events, func(a, b hookEvent) int {
		if a.cycle != b.cycle {
			return cmp.Compare(a.cycle, b.cycle)
		}
		return a.node - b.node
	})
	for _, e := range m.events {
		if e.cycle > cutCycle || (e.cycle == cutCycle && e.node > cutNode) {
			break
		}
		if e.out {
			m.Output(e.node, e.word)
		} else {
			in, _ := DecodeInstr(e.word)
			m.Trace(e.cycle, e.node, e.pc, in)
		}
	}
	m.events = m.events[:0]
}

// limit returns the run's effective cycle bound: MaxCycles, tightened to
// the fault plan's crash cycle when one is scheduled earlier (a planned
// crash is just a run limit that reports differently). 0 means unbounded.
func (m *Machine) limit() int64 {
	lim := m.MaxCycles
	if m.Fault != nil {
		if _, at, ok := m.Fault.CrashAt(len(m.Nodes)); ok && (lim <= 0 || at < lim) {
			lim = at
		}
	}
	return lim
}

// limitErr builds the error for a run stopped at cycle bound lim: a node
// crash when the fault plan scheduled one there, otherwise the livelock/
// exhaustion diagnosis. Both include the live-thread and in-flight state
// so a degraded run is diagnosable from the engine's per-point error
// capture alone.
func (m *Machine) limitErr(lim int64) error {
	if m.Fault != nil {
		if node, at, ok := m.Fault.CrashAt(len(m.Nodes)); ok && at == lim {
			return fmt.Errorf("isa: node %d crashed at cycle %d (fault plan): run stopped with %s", node, at, m.liveSummary())
		}
	}
	return fmt.Errorf("isa: exceeded %d cycles (livelock or unfinished work) at cycle %d with %s", lim, m.cycle, m.liveSummary())
}

// liveSummary renders the machine's blocked state: the total live-thread
// count, the per-node counts for the first few stuck nodes, and the
// number of parcels still in flight.
func (m *Machine) liveSummary() string {
	var b strings.Builder
	total, listed, stuck := 0, 0, 0
	for _, n := range m.Nodes {
		if n.live == 0 {
			continue
		}
		total += n.live
		stuck++
		if listed < 8 {
			if listed > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "node%d=%d", n.ID, n.live)
			listed++
		}
	}
	if total == 0 {
		return fmt.Sprintf("0 live threads, %d parcels in flight", len(m.inFlight))
	}
	tail := ""
	if stuck > listed {
		tail = fmt.Sprintf(" +%d more nodes", stuck-listed)
	}
	return fmt.Sprintf("%d live threads [%s%s], %d parcels in flight", total, b.String(), tail, len(m.inFlight))
}

// lookahead returns the machine's conservative network lookahead — a
// lower bound L on the flight latency of every cross-node parcel, so a
// parcel sent at cycle c cannot arrive before c+L+1 — and whether one is
// known. With the flat network the latency itself is the bound; with a
// NetDelay hook the caller must declare one via NetLookahead (ok=false
// otherwise, and Run falls back to one-cycle windows).
func (m *Machine) lookahead() (la int64, ok bool) {
	if m.NetDelay == nil {
		return m.Timing.NetLatency, true
	}
	if m.NetLookahead > 0 {
		return m.NetLookahead, true
	}
	return 0, false
}

// windowCeiling caps the synchronization window: wide enough that
// every in-repo latency regime (<= 5000 cycles) runs one barrier per
// lookahead, small enough that termination checks and clock arithmetic
// stay sane for extreme NetLatency values.
const windowCeiling = 1 << 16

func (m *Machine) windowCap() int64 {
	if m.maxWindow > 0 {
		return m.maxWindow
	}
	return windowCeiling
}

// sortNewFlights restores canonical (sent, src) send order over the
// flights launched in the window that just ended. Node-major execution
// appends them grouped by sending node rather than in issue order; the
// flights already in the queue at window start (sent < wstart) are in
// canonical order and precede every new one, so sorting the new tail —
// insertion sort, alloc-free, tails are at most a handful of parcels —
// re-establishes the global cycle-by-cycle order.
func sortNewFlights(fl []flight, wstart int64) {
	b := len(fl)
	for i := range fl {
		if fl[i].sent >= wstart {
			b = i
			break
		}
	}
	insertionSortFlights(fl[b:])
}

// insertionSortFlights sorts flights by (sent, src) — a strict total
// order (one issue slot per node per cycle).
func insertionSortFlights(fl []flight) {
	for i := 1; i < len(fl); i++ {
		f := fl[i]
		j := i - 1
		for j >= 0 && (fl[j].sent > f.sent || (fl[j].sent == f.sent && fl[j].src > f.src)) {
			fl[j+1] = fl[j]
			j--
		}
		fl[j+1] = f
	}
}

// runNodeWindow runs node n alone over cycles [wstart, wend] — the VM's
// one scheduler — returning the last cycle at which it issued an
// instruction and, on an execution fault, the cycle it faulted.
// Delivered flights are tombstoned (node = -1) in place so the shared
// slice stays index-stable for the nodes that have not run their window
// yet.
//
// Each cycle the node issues one instruction from the first ready thread
// at or after its round-robin pointer. The scan is event-driven: ready
// and stalled threads live in per-slot bitsets (the first set bit from
// the pointer is the scan's choice), stalled threads carry absolute wake
// cycles instead of countdowns (nothing ticks), and the next wake or
// arrival is a single compare per cycle, so all-stalled and idle
// stretches are skipped in one step. Word 0 of each bitset (slots 0-63,
// all of them on most nodes) lives in a local; the words above it, and
// the wakes, are scratch on the Machine (see sched). The scratch is
// rebuilt from the slab on entry and flushed back to countdowns on every
// exit.
func (m *Machine) runNodeWindow(n *NodeState, wstart, wend int64) (lastIssue, errCycle int64, err error) {
	sc := &m.sched
	ready, stalled, minWake := sc.load(n, wstart)
	// The scratch slices are read through sc rather than copied to locals:
	// local slice headers that a delivery must refresh inside the loop
	// measurably slowed the hot path. wide: the slab has slots past word 0.
	wide := len(sc.readyHi) > 0
	// Without a MemDelay hook every scalar memory op stalls the same
	// fixed cost — hoist it, including the node's straggler scale
	// (constant per node). With one, each op asks memCost.
	memC := m.Timing.MemCycles
	if m.Fault != nil {
		memC *= m.Fault.CostScale(n.ID)
	}
	if memC < 1 {
		memC = 1
	}
	// Hot node state hoisted to locals: the stores below (node memory,
	// counters) would otherwise force a reload of every n-field on each
	// iteration. The slab headers are stable inside a window except
	// threads, which parcel delivery can grow — refreshed there.
	// Instruction/memop counts accumulate locally and flush once;
	// execDecoded bumps the n-fields directly, and the sums commute.
	mem := n.Mem
	prog := n.decoded
	if m.Trace != nil {
		// A traced run decodes every issue from memory, the one dispatch
		// path that records trace events, so the decoded path carries no
		// hook check.
		prog = nil
	}
	progBase := n.progBase
	threads := n.threads
	// Every cycle the loop passes is idle (no live thread) or busy, so
	// only idle cycles are counted; a fault's cycle counts busy.
	var instr, memOps, idle int64
	var outside decop // an issue decoded from memory (see fetch)
	next := n.next
	if next >= len(threads) {
		next = 0
	}
	// nextArr <= c sends the loop through its housekeeping: parcel
	// delivery and the slab compaction check. The first cycle always
	// takes it.
	nextArr := wstart
	c := wstart
	for c <= wend {
		if nextArr <= c {
			ready, stalled, minWake, next, nextArr = m.housekeep(n, c, ready, stalled, minWake, next)
			threads, wide = n.threads, len(sc.readyHi) > 0
		}
		if minWake <= c {
			// Move expired stalls to the ready set, tracking the next wake
			// among the remainder. The slab countdown may hold the stall a
			// cold op set; clear it so the post-execute check below sees
			// only a fresh one.
			mw := never
			for sm := stalled; sm != 0; sm &= sm - 1 {
				i := bits.TrailingZeros64(sm)
				if sc.wake[i] <= c {
					stalled &^= 1 << uint(i)
					ready |= 1 << uint(i)
					threads[i].stall = 0
				} else {
					mw = min(mw, sc.wake[i])
				}
			}
			for w, sm := range sc.stalledHi {
				for ; sm != 0; sm &= sm - 1 {
					b := bits.TrailingZeros64(sm)
					if i := (w+1)<<6 | b; sc.wake[i] <= c {
						sc.stalledHi[w] &^= 1 << uint(b)
						sc.readyHi[w] |= 1 << uint(b)
						threads[i].stall = 0
					} else {
						mw = min(mw, sc.wake[i])
					}
				}
			}
			minWake = mw
		}
		if ready == 0 && (!wide || none(sc.readyHi)) {
			to := min(nextArr, wend+1)
			if n.live == 0 {
				idle += to - c
			} else {
				// Every live thread is stalled: jump to the next wake or
				// arrival (all-stalled cycles count busy — the bank works).
				to = min(to, minWake)
			}
			c = to
			continue
		}
		// Choose: first ready slot at or after the issue pointer, wrapping.
		// (A pointer past word 0 shifts the mask to zero.)
		r := ready &^ (1<<uint(next) - 1)
		if r == 0 && !wide {
			r = ready
		}
		var idx int
		if r != 0 {
			idx = bits.TrailingZeros64(r)
		} else {
			idx = pick(ready, sc.readyHi, next)
		}
		nT := len(threads)
		i0 := idx - next
		if i0 < 0 {
			i0 += nT
		}
		next = idx + 1
		if next >= nT {
			next = 0
		}
		// The cycle-by-cycle scan recomputes its index from the issue
		// pointer, which moves when a thread is chosen mid-scan: with
		// q = min(i0, nT-2-i0) and i0 the chosen slot's distance from the
		// scan start, the q+1 slots after the chosen one are not visited
		// this cycle (their stalls do not tick) and the q slots before it
		// are visited twice (their stalls tick twice, not below zero).
		// Reproduce that schedule exactly on the wake array.
		if q := min(i0, nT-2-i0); q >= 0 && minWake != never {
			// A pushed-out wake only invalidates minWake if it held it.
			recompute := false
			for k := 1; k <= q+1; k++ {
				s := idx + k
				if s >= nT {
					s -= nT
				}
				if isSet(stalled, sc.stalledHi, s) {
					if sc.wake[s] == minWake {
						recompute = true
					}
					sc.wake[s]++
				}
			}
			for k := 1; k <= q; k++ {
				s := idx - k
				if s < 0 {
					s += nT
				}
				if isSet(stalled, sc.stalledHi, s) {
					if w := sc.wake[s] - 1; w > c {
						sc.wake[s] = w
						minWake = min(minWake, w)
					}
				}
			}
			if recompute {
				minWake = sc.minWake(stalled)
			}
		}
		t := &threads[idx]
		d := &outside
		if off := t.PC - progBase; off < uint64(len(prog)) {
			d = &prog[off]
		} else if t.PC < uint64(len(mem)) {
			outside = m.fetch(n, c, t.PC)
		} else {
			errCycle, err = c, fmt.Errorf("isa: node %d: PC %d out of memory", n.ID, t.PC)
			break
		}
		// The hot op classes — ALU (OpAdd..OpLui), control (OpBeq..OpJr),
		// and scalar LD/ST — execute right here, without a call: none can
		// halt or spawn, none reads m.cycle, and the fixed memory cost is
		// hoisted above. Everything else (halt, amo, wide, spawn, nodeid,
		// print, invalid) goes through execDecoded.
		if d.op >= OpAdd && d.op <= OpLui {
			regs := &t.Regs
			var v uint64
			switch d.op {
			case OpAdd:
				v = regs[d.ra] + regs[d.rb]
			case OpSub:
				v = regs[d.ra] - regs[d.rb]
			case OpMul:
				v = regs[d.ra] * regs[d.rb]
			case OpAnd:
				v = regs[d.ra] & regs[d.rb]
			case OpOr:
				v = regs[d.ra] | regs[d.rb]
			case OpXor:
				v = regs[d.ra] ^ regs[d.rb]
			case OpShl:
				v = regs[d.ra] << (regs[d.rb] & 63)
			case OpShr:
				v = regs[d.ra] >> (regs[d.rb] & 63)
			case OpAddi:
				v = regs[d.ra] + d.imm
			case OpLui:
				v = d.imm
			}
			if d.rd != 0 {
				regs[d.rd] = v
			}
			instr++
			t.PC++
			lastIssue = c
			c++
			continue
		}
		if d.op >= OpBeq && d.op <= OpJr {
			regs := &t.Regs
			pc := t.PC + 1
			switch d.op {
			case OpBeq:
				if regs[d.ra] == regs[d.rb] {
					pc = d.imm
				}
			case OpBne:
				if regs[d.ra] != regs[d.rb] {
					pc = d.imm
				}
			case OpBlt:
				if regs[d.ra] < regs[d.rb] {
					pc = d.imm
				}
			case OpJmp:
				pc = d.imm
			case OpJr:
				pc = regs[d.ra]
			}
			instr++
			t.PC = pc
			lastIssue = c
			c++
			continue
		}
		var cost int64
		if d.op == OpLd || d.op == OpSt {
			instr++
			regs := &t.Regs
			addr := regs[d.ra] + d.imm
			if addr >= uint64(len(mem)) {
				errCycle, err = c, memFault(n, t.PC, addr)
				break
			}
			if d.op == OpLd {
				if d.rd != 0 {
					regs[d.rd] = mem[addr]
				}
			} else {
				mem[addr] = regs[d.rd]
				if addr-progBase < uint64(len(n.decoded)) {
					n.patch(addr)
				}
			}
			memOps++
			t.PC++
			cost = memC
			if m.MemDelay != nil {
				cost = m.memCost(n, addr, false)
			}
		} else {
			m.cycle = c
			flightsBefore := len(m.inFlight)
			if serr := m.execDecoded(n, t, d, idx); serr != nil {
				errCycle, err = c, serr
				break
			}
			// A spawn launched: only a node-local parcel can land inside
			// the window, but track it either way.
			for i := flightsBefore; i < len(m.inFlight); i++ {
				if f := &m.inFlight[i]; f.node == n.ID {
					nextArr = min(nextArr, f.arrive)
				}
			}
			if t.done {
				if idx < 64 {
					ready &^= 1 << uint(idx)
				} else {
					sc.readyHi[idx>>6-1] &^= 1 << uint(idx&63)
				}
				if nT >= 64 {
					// The halt may let compaction fire: check next cycle.
					nextArr = min(nextArr, c+1)
				}
			}
			cost = t.stall + 1
		}
		lastIssue = c
		// Move a stalled thread straight to the stalled set (the slab
		// countdown stays untouched — sched.flush rewrites it from wake).
		// A cost of 1 means no stall: the thread stays ready.
		if cost > 1 {
			if idx < 64 {
				ready &^= 1 << uint(idx)
				stalled |= 1 << uint(idx)
			} else {
				sc.readyHi[idx>>6-1] &^= 1 << uint(idx&63)
				sc.stalledHi[idx>>6-1] |= 1 << uint(idx&63)
			}
			sc.wake[idx] = c + cost
			minWake = min(minWake, c+cost)
		}
		c++
	}
	sc.flush(n, c, stalled)
	n.next = next
	n.Instructions += instr
	n.MemOps += memOps
	n.BusyCycles += c - wstart - idle
	if err != nil {
		n.BusyCycles++
	}
	n.IdleCycles += idle
	return lastIssue, errCycle, err
}

// never is the wake/arrival sentinel: no event pending.
const never = int64(^uint64(0) >> 1)

// housekeep runs the issue loop's rare work at cycle c: it starts the
// threads of n's parcels due by c, in flight order, and, when finished
// contexts dominate the slab (every live cycle checks), compacts it and
// re-indexes the scratch. It takes and returns the loop's scheduling
// state — word 0 of the ready and stalled bitsets, the earliest wake, the
// issue pointer — and returns n's next arrival (never if none).
func (m *Machine) housekeep(n *NodeState, c int64, ready, stalled uint64, minWake int64, next int) (uint64, uint64, int64, int, int64) {
	sc := &m.sched
	nextArr := never
	for i := range m.inFlight {
		f := &m.inFlight[i]
		if f.node != n.ID {
			continue
		}
		if f.arrive > c {
			nextArr = min(nextArr, f.arrive)
			continue
		}
		idx := n.startThread(f.entry, f.arg, f.src)
		f.node = -1
		sc.fit(len(n.threads))
		if idx < 64 {
			ready |= 1 << uint(idx)
		} else {
			sc.readyHi[idx>>6-1] |= 1 << uint(idx&63)
		}
	}
	if len(n.threads) >= 64 && n.live > 0 && n.live*2 <= len(n.threads) {
		sc.flush(n, c, stalled)
		n.compact()
		ready, stalled, minWake = sc.load(n, c)
		next = 0
	}
	return ready, stalled, minWake, next, nextArr
}

// fetch decodes the instruction word at pc for an issue the decoded slab
// does not cover — a PC outside the program span, or any issue of a
// traced run — and records the issue's Trace event on a traced run.
func (m *Machine) fetch(n *NodeState, c int64, pc uint64) decop {
	d := decodeOp(n.Mem[pc])
	if m.Trace != nil && d.op != OpInvalid {
		m.events = append(m.events, hookEvent{cycle: c, node: n.ID, pc: pc, word: n.Mem[pc]})
	}
	return d
}

// none reports whether every word of a bitset is zero.
func none(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

// isSet reports whether slot i is set in the bitset with word 0 w0 and
// higher words hi.
func isSet(w0 uint64, hi []uint64, i int) bool {
	if i < 64 {
		return w0&(1<<uint(i)) != 0
	}
	return hi[i>>6-1]&(1<<uint(i&63)) != 0
}

// pick returns the first set slot at or after from in the non-empty
// bitset with word 0 w0 and higher words hi, wrapping past the end. The
// caller has already found no set slot at or after from in word 0.
func pick(w0 uint64, hi []uint64, from int) int {
	for w := max(from>>6, 1); w <= len(hi); w++ {
		r := hi[w-1]
		if w == from>>6 {
			r &^= 1<<uint(from&63) - 1
		}
		if r != 0 {
			return w<<6 | bits.TrailingZeros64(r)
		}
	}
	if w0 != 0 {
		return bits.TrailingZeros64(w0)
	}
	for w := 1; ; w++ {
		if r := hi[w-1]; r != 0 {
			return w<<6 | bits.TrailingZeros64(r)
		}
	}
}

// sched is the issue loop's scratch for the node running its window,
// indexed by thread slot: the ready and stalled bitset words above word
// 0 (slot 64k+b is bit b of word k-1) and each stalled thread's wake
// cycle. It lives on the Machine (one per parallel worker) rather than on
// each node, so it stays cache-hot from node to node, and runs allocate
// nothing once it has grown.
type sched struct {
	readyHi, stalledHi []uint64
	wake               []int64
}

// load rebuilds the scratch from n's thread slab at cycle c, the first
// cycle to execute: a live thread with countdown s > 0 is stalled until
// c+s, any other live thread is ready. It returns word 0 of the ready
// and stalled bitsets and the earliest wake.
func (sc *sched) load(n *NodeState, c int64) (ready0, stalled0 uint64, minWake int64) {
	sc.readyHi, sc.stalledHi = sc.readyHi[:0], sc.stalledHi[:0]
	sc.fit(len(n.threads))
	minWake = never
	for i := range n.threads {
		t := &n.threads[i]
		switch {
		case t.done:
		case t.stall > 0:
			if i < 64 {
				stalled0 |= 1 << uint(i)
			} else {
				sc.stalledHi[i>>6-1] |= 1 << uint(i&63)
			}
			sc.wake[i] = c + t.stall
			minWake = min(minWake, c+t.stall)
		case i < 64:
			ready0 |= 1 << uint(i)
		default:
			sc.readyHi[i>>6-1] |= 1 << uint(i&63)
		}
	}
	return ready0, stalled0, minWake
}

// fit extends the scratch to cover nT slots; new words start empty. (A
// wake entry is read only while its slot is stalled, which writes it.)
func (sc *sched) fit(nT int) {
	if nT > len(sc.wake) {
		sc.wake = slices.Grow(sc.wake, nT-len(sc.wake))[:nT]
	}
	for len(sc.readyHi) < (nT-1)>>6 {
		sc.readyHi = append(sc.readyHi, 0)
		sc.stalledHi = append(sc.stalledHi, 0)
	}
}

// flush writes the stalled threads' wakes back to n's slab countdowns
// relative to cycle c, the first cycle the window loop did not execute;
// stalled0 is word 0 of the stalled bitset. (Ready threads' countdowns
// are already zero: the loop clears a countdown when its stall expires.)
func (sc *sched) flush(n *NodeState, c int64, stalled0 uint64) {
	for sm := stalled0; sm != 0; sm &= sm - 1 {
		i := bits.TrailingZeros64(sm)
		n.threads[i].stall = max(sc.wake[i]-c, 0)
	}
	for w, sm := range sc.stalledHi {
		for ; sm != 0; sm &= sm - 1 {
			i := (w+1)<<6 | bits.TrailingZeros64(sm)
			n.threads[i].stall = max(sc.wake[i]-c, 0)
		}
	}
}

// minWake returns the earliest wake among the stalled threads; stalled0
// is word 0 of the stalled bitset.
func (sc *sched) minWake(stalled0 uint64) int64 {
	mw := never
	for sm := stalled0; sm != 0; sm &= sm - 1 {
		mw = min(mw, sc.wake[bits.TrailingZeros64(sm)])
	}
	for w, sm := range sc.stalledHi {
		for ; sm != 0; sm &= sm - 1 {
			mw = min(mw, sc.wake[(w+1)<<6|bits.TrailingZeros64(sm)])
		}
	}
	return mw
}

// compact drops finished thread contexts, so a node that fanned out a
// burst of threads doesn't scan their dead slots forever after the burst
// drains. Every live cycle of a node whose slab holds at least 64 slots,
// at most half of them live, compacts it. (The free list bounds slab
// growth under steady churn; this bounds the scan after a one-off
// spike.) The kept contexts stay in issue order, the issue pointer
// restarts at slot 0, and the backing array is reused, so both
// determinism and the zero-alloc discipline survive.
func (n *NodeState) compact() {
	kept := n.threads[:0]
	for i := range n.threads {
		if !n.threads[i].done {
			kept = append(kept, n.threads[i])
		}
	}
	n.threads = kept
	n.free = n.free[:0]
	n.next = 0
}

// memCost returns the cycle cost of one memory operation, scaled by the
// fault plan's straggler factor for slow nodes.
func (m *Machine) memCost(n *NodeState, addr uint64, wide bool) int64 {
	var c int64
	switch {
	case m.MemDelay != nil:
		c = m.MemDelay(n.ID, addr, wide)
	case wide:
		c = m.Timing.WideMemCycles
	default:
		c = m.Timing.MemCycles
	}
	if m.Fault != nil {
		c *= m.Fault.CostScale(n.ID)
	}
	if c < 1 {
		c = 1
	}
	return c
}

// spawnStall returns the issue stall of one spawn instruction (the local
// parcel-launch cost), scaled for straggler nodes.
func (m *Machine) spawnStall(n *NodeState) int64 {
	c := m.Timing.SpawnCycles
	if m.Fault != nil {
		c *= m.Fault.CostScale(n.ID)
	}
	if c < 1 {
		c = 1
	}
	return c - 1
}

// parcelLatency returns the base one-way flight time from n to dst.
func (m *Machine) parcelLatency(n *NodeState, dst int) int64 {
	if dst == n.ID {
		return 0
	}
	if m.NetDelay != nil {
		return m.NetDelay(n.ID, dst)
	}
	return m.Timing.NetLatency
}

// rto is the reliable mode's retransmission timeout toward a destination
// with base latency lat: a full round trip, the worst jitter an attempt
// can pick up, and a small ack-processing slack.
func (m *Machine) rto(lat int64) int64 {
	return 2*lat + m.Fault.Config().JitterMax + 4
}

// sendParcel launches one spawn parcel from n to dst, routing it through
// the fault plan when one is armed.
//
// The faulted path resolves the entire delivery analytically at send
// time: every attempt's fate is a pure function of (plan seed, identity,
// attempt), so the surviving arrival — if any — is known immediately and
// is the only flight that enters the queue. Crucially the flight keeps
// the *original* send cycle in flight.sent even when retransmissions
// delayed it: (sent, src) is the canonical merge order the windowed and
// parallel barriers restore, and it must name the issuing instruction
// slot, not the retry clock. Extra delay (RTO waits, jitter) only ever
// increases the arrival cycle, so the declared network lookahead remains
// a valid lower bound and conservative windows stay safe.
func (m *Machine) sendParcel(n *NodeState, dst int, entry, arg uint64) {
	lat := m.parcelLatency(n, dst)
	f := flight{arrive: m.cycle + lat + 1, sent: m.cycle, node: dst, entry: entry, arg: arg, src: uint64(n.ID)}
	if dst == n.ID || m.Fault == nil || !m.Fault.NetEnabled() {
		// Node-local spawns never cross the network; without an armed
		// plan the perfect interconnect delivers exactly one flight.
		m.inFlight = append(m.inFlight, f)
		return
	}
	id := fault.Identity{Sent: m.cycle, Src: n.ID, Seq: n.seq}
	n.seq++
	n.ParcelsSent++
	if m.Reliable {
		d := m.Fault.PlanDelivery(id, m.rto(lat))
		n.ParcelDrops += int64(d.Drops)
		n.ParcelCorrupts += int64(d.Corrupts)
		n.ParcelRetries += int64(d.Attempts - 1)
		if d.Duplicated {
			// Delivered twice on the wire; the receiver's sequence number
			// suppresses the copy, so no second thread starts.
			n.ParcelDups++
		}
		if !d.Delivered {
			// Every attempt faulted: the payload never runs. The cycle
			// limit guard diagnoses the stalled program.
			n.ParcelsLost++
			return
		}
		n.ParcelsDelivered++
		f.arrive += d.ExtraDelay
		m.inFlight = append(m.inFlight, f)
		return
	}
	// Unreliable datagram mode: one attempt, no acks, faults are final.
	switch {
	case m.Fault.Dropped(id, 0):
		n.ParcelDrops++
		n.ParcelsLost++
	case m.Fault.Corrupted(id, 0):
		n.ParcelCorrupts++
		n.ParcelsLost++
	default:
		f.arrive += m.Fault.Jitter(id, 0)
		n.ParcelsDelivered++
		m.inFlight = append(m.inFlight, f)
		if m.Fault.Duplicated(id, 0) {
			// No sequence numbers to suppress it: the duplicate starts a
			// second payload thread one cycle (plus jitter) later.
			dup := f
			dup.arrive += 1 + m.Fault.Jitter(id, 1)
			n.ParcelDups++
			m.inFlight = append(m.inFlight, dup)
		}
	}
}

// TotalInstructions sums instruction counts over nodes.
func (m *Machine) TotalInstructions() int64 {
	var s int64
	for _, n := range m.Nodes {
		s += n.Instructions
	}
	return s
}

// DeliveryStats aggregates the per-node parcel-delivery counters of a
// faulted run (all zero when no fault plan was armed).
type DeliveryStats struct {
	Sent, Drops, Corrupts, Dups, Retries, Delivered, Lost int64
}

// DeliveryStats sums the parcel-delivery counters over all nodes.
func (m *Machine) DeliveryStats() DeliveryStats {
	var s DeliveryStats
	for _, n := range m.Nodes {
		s.Sent += n.ParcelsSent
		s.Drops += n.ParcelDrops
		s.Corrupts += n.ParcelCorrupts
		s.Dups += n.ParcelDups
		s.Retries += n.ParcelRetries
		s.Delivered += n.ParcelsDelivered
		s.Lost += n.ParcelsLost
	}
	return s
}

// Utilization returns the busy fraction of node i over the run.
func (m *Machine) Utilization(i int) float64 {
	n := m.Nodes[i]
	total := n.BusyCycles + n.IdleCycles
	if total == 0 {
		return 0
	}
	return float64(n.BusyCycles) / float64(total)
}

// MeanUtilization returns the busy fraction averaged over all nodes.
func (m *Machine) MeanUtilization() float64 {
	if len(m.Nodes) == 0 {
		return 0
	}
	var s float64
	for i := range m.Nodes {
		s += m.Utilization(i)
	}
	return s / float64(len(m.Nodes))
}
