package sim

// Conservative time-windowed parallel execution of one simulation —
// ROADMAP item 1's DES half, the counterpart of the machine backend's
// isa.runParallel (PR 7). A ParKernel is P shard kernels whose event
// queues alias the partitions of one partitionedQueue. The coordinator
// reads the queue's merge front for the global minimum W and opens the
// window [W, W+L), where L is the model-declared lookahead: the minimum
// cross-shard event delay. The workers — the coordinator itself and
// persistent helpers, one gang (internal/gang) — drain their shards up
// to the horizon concurrently; cross-shard Sends buffer per shard and
// merge at the barrier in canonical (t, seq) order.
//
// What makes the trajectories byte-identical to the serial kernel — not
// merely deterministic per worker count — is the barrier's replay
// renumbering. The serial kernel breaks time ties by seq, the global
// schedule counter, so equality requires reproducing the exact serial
// counter values. While the run is single-threaded (model setup, between
// windows) shards draw from the shared counter directly, so those seqs
// are exact. During a window each shard numbers its schedules
// provisionally from the shared counter's value at the window start
// (the base) and logs every schedule under the event that made it (its
// caller). Conservative lookahead guarantees each shard fires exactly
// the window events the serial run would, in the same shard-local order,
// so the per-shard caller logs are each ascending in serial order; the
// barrier then replays them through a P-way merge on (t, caller seq) —
// resolving provisional caller seqs through the assignments already made
// — and hands out exact serial seqs call by call. Still-queued events
// are re-stamped in place (provisional and serial numbering are
// order-isomorphic within a shard, so the heap order and the order of
// every lane and wheel bucket are unchanged);
// buffered cross-shard sends become deliveries carrying their exact
// seq. Every provisional number is gone by the time anything can observe
// it across shards.
//
// The contract a model buys this with: shards share no mutable state,
// and every cross-shard interaction goes through Kernel.Send with delay
// >= the declared lookahead. Partitions that never communicate may
// declare an infinite lookahead, collapsing the run into one window per
// drain. A ParKernel with one partition skips the window machinery
// entirely and IS the serial kernel, which keeps the oracle honest: the
// equivalence tests run the same model code both ways.

import (
	"fmt"

	"repro/internal/gang"
)

// shardState is the per-shard half of a partitioned run, hung off
// Kernel.par. During a window it is touched only by the worker driving
// that shard; the coordinator touches it only between windows, and the
// window barrier (a gang, internal/gang) orders the two.
type shardState struct {
	pk  *ParKernel
	idx int

	// window is true while a parallel window is draining this shard: the
	// shard numbers schedules provisionally and logs them for the barrier.
	window bool
	// base is the shared counter's value at the window start; seqs below
	// it are exact serial numbers, seqs at or above it are provisional.
	base uint64

	// curT/curSeq identify the event currently firing — the caller of any
	// schedule made during the window; curLogged dedups the caller record.
	curT      Time
	curSeq    uint64
	curLogged bool

	callers  []callerRec
	calls    []callRec
	outbox   []outMsg
	assigned []uint64 // barrier scratch: provisional offset -> exact seq
}

// callerRec groups the consecutive schedules made under one fired event.
type callerRec struct {
	t   Time
	seq uint64 // provisional if >= base, exact otherwise
	n   int    // schedules logged under this caller
}

// callRec is one logged schedule: the event it created, pinned to its
// incarnation so a recycled struct is not re-stamped by mistake, or nil
// for a cross-shard Send (which pairs with the next outbox entry).
type callRec struct {
	ev  *event
	gen uint64
}

// outMsg is one buffered cross-shard Send.
type outMsg struct {
	to  int
	t   Time
	fn  func(any)
	arg any
}

// logCall records one schedule under the current caller.
func (sh *shardState) logCall(ev *event, gen uint64) {
	if !sh.curLogged {
		sh.curLogged = true
		sh.callers = append(sh.callers, callerRec{t: sh.curT, seq: sh.curSeq})
	}
	sh.callers[len(sh.callers)-1].n++
	sh.calls = append(sh.calls, callRec{ev: ev, gen: gen})
}

// Send schedules fn(arg) on the given partition after delay. On a
// standalone kernel (and for a shard sending to itself) it is exactly
// ScheduleArg, so partition-aware model code runs unchanged on the serial
// kernel. On a partitioned run a cross-shard send must respect the
// declared lookahead (delay >= lookahead); a violation panics, which the
// kernel's callback containment converts into the run's error.
func (k *Kernel) Send(part int, delay Time, fn func(any), arg any) {
	sh := k.par
	if sh == nil || part == sh.idx {
		k.ScheduleArg(delay, fn, arg)
		return
	}
	sh.checkPart(part)
	if delay < sh.pk.lookahead {
		panic(fmt.Sprintf("sim: Send delay %g below declared lookahead %g (partition %d -> %d)",
			delay, sh.pk.lookahead, sh.idx, part))
	}
	k.sendFar(part, k.now+delay, fn, arg)
}

// SendAt is Send at the absolute time t rather than after a delay. A
// model that sums a busy period itself sends at the sum, not at now plus
// its difference from now, which can round differently. A cross-shard
// send must land at or after now + lookahead.
func (k *Kernel) SendAt(part int, t Time, fn func(any), arg any) {
	sh := k.par
	if sh == nil || part == sh.idx {
		k.scheduleArgAt(t, fn, arg)
		return
	}
	sh.checkPart(part)
	if t < k.now+sh.pk.lookahead {
		panic(fmt.Sprintf("sim: SendAt(%g) from %g undercuts the declared lookahead %g (partition %d -> %d)",
			t, k.now, sh.pk.lookahead, sh.idx, part))
	}
	k.sendFar(part, t, fn, arg)
}

// checkPart panics on a destination partition that does not exist.
func (sh *shardState) checkPart(part int) {
	if part < 0 || part >= len(sh.pk.parts) {
		panic(fmt.Sprintf("sim: Send to partition %d of %d", part, len(sh.pk.parts)))
	}
}

// sendFar delivers a checked cross-shard send landing at time t.
func (k *Kernel) sendFar(part int, t Time, fn func(any), arg any) {
	sh := k.par
	pk := sh.pk
	if !sh.window {
		// Single-threaded phase: deliver directly with an exact seq.
		seq := pk.seq
		pk.seq++
		pk.parts[part].deliverEvent(t, seq, fn, arg)
		return
	}
	// Window: consume one provisional seq (so the replay's call-to-seq
	// pairing stays exact) and buffer the message for the barrier.
	k.seq++
	sh.logCall(nil, 0)
	sh.outbox = append(sh.outbox, outMsg{to: part, t: t, fn: fn, arg: arg})
}

// deliverEvent injects a cross-shard delivery carrying an externally
// assigned sequence number. Only the coordinator (between windows) and
// single-threaded Sends use it.
func (k *Kernel) deliverEvent(t Time, seq uint64, fn func(any), arg any) {
	if t < k.now {
		panic(fmt.Sprintf("sim: cross-partition delivery at %g before destination now (%g)", t, k.now))
	}
	ev := k.allocEvent(t)
	ev.seq = seq
	ev.afn, ev.arg = fn, arg
	k.events.push(ev)
}

// Partition returns the shard index this kernel runs as, or 0 for a
// standalone kernel — models use it to learn their own address for Sends.
func (k *Kernel) Partition() int {
	if k.par == nil {
		return 0
	}
	return k.par.idx
}

// windowJob is one window broadcast to the workers: drain up to h,
// exclusive when strict (the usual [W, W+L) window) or inclusive when not
// (the final window of a bounded run, clamped to `until`).
type windowJob struct {
	h      Time
	strict bool
}

// ParKernel runs one simulation partitioned over P shard kernels on a
// gang of workers: the driving goroutine drains worker 0's shards itself
// and persistent helpers drain the rest. Build the model across the
// shard kernels (Part), communicate between partitions only via Send
// with delay >= the declared lookahead, then drive the run with Run,
// Advance, or RunUntilIdle from one goroutine.
type ParKernel struct {
	parts     []*Kernel
	pq        *partitionedQueue
	lookahead Time
	workers   int
	seq       uint64 // the shared serial schedule counter

	deliveries []delivery    // barrier scratch, reused across windows
	curs       []mergeCursor // barrier scratch: per-shard log positions

	gang   *gang.Gang // the workers, started by the first window
	job    windowJob  // the window the gang is draining
	closed bool

	err     error
	stopped bool
}

// mergeCursor is the barrier's read position in one shard's logs: the
// next caller record, call record and outbox entry.
type mergeCursor struct{ ci, ki, oi int }

// delivery is one renumbered cross-shard message awaiting injection.
type delivery struct {
	to  int
	t   Time
	seq uint64
	fn  func(any)
	arg any
}

// NewParKernel creates a partitioned simulation with the given partition
// count, worker count (clamped to [1, parts]), and lookahead — the
// model-declared minimum cross-partition event delay. The lookahead must
// be positive when parts > 1; math.Inf(1) declares that the partitions
// never communicate during a drain.
func NewParKernel(parts, workers int, lookahead Time) *ParKernel {
	if parts < 1 {
		panic(fmt.Sprintf("sim: NewParKernel with %d partitions", parts))
	}
	if parts > 1 && !(lookahead > 0) {
		panic(fmt.Sprintf("sim: NewParKernel with %d partitions needs a positive lookahead, got %g", parts, lookahead))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > parts {
		workers = parts
	}
	pk := &ParKernel{
		pq:        newPartitionedQueue(parts, nil),
		lookahead: lookahead,
		workers:   workers,
		curs:      make([]mergeCursor, parts),
	}
	pk.parts = make([]*Kernel, parts)
	for i := range pk.parts {
		k := NewKernel()
		k.events = &pk.pq.parts[i]
		k.par = &shardState{pk: pk, idx: i}
		pk.parts[i] = k
	}
	return pk
}

// Part returns shard i's kernel.
func (pk *ParKernel) Part(i int) *Kernel { return pk.parts[i] }

// Parts returns the partition count.
func (pk *ParKernel) Parts() int { return len(pk.parts) }

// Workers returns the worker count.
func (pk *ParKernel) Workers() int { return pk.workers }

// Lookahead returns the declared minimum cross-partition delay.
func (pk *ParKernel) Lookahead() Time { return pk.lookahead }

// Now returns the latest shard time — after a completed Advance or Run
// every shard agrees on it.
func (pk *ParKernel) Now() Time {
	t := pk.parts[0].now
	for _, k := range pk.parts[1:] {
		if k.now > t {
			t = k.now
		}
	}
	return t
}

// startWorkers starts the gang on first use.
func (pk *ParKernel) startWorkers() {
	if pk.closed {
		panic("sim: ParKernel driven after Close")
	}
	if pk.gang == nil {
		pk.gang = gang.New(pk.workers, pk.drainShards)
	}
}

// drainShards is worker w's share of a window: shards w, w+W, w+2W, …,
// in that order.
func (pk *ParKernel) drainShards(w int) {
	for s := w; s < len(pk.parts); s += pk.workers {
		if k := pk.parts[s]; !k.stopped {
			k.windowDrain(pk.job.h, pk.job.strict)
		}
	}
}

// Close stops the workers and returns once they have exited. Run and
// RunUntilIdle close on completion; only Advance-style incremental
// driving needs an explicit Close. Closing is idempotent.
func (pk *ParKernel) Close() {
	pk.closed = true
	if pk.gang != nil {
		pk.gang.Close()
	}
}

// windowDrain drains one shard for one window; runs on a worker.
func (k *Kernel) windowDrain(h Time, strict bool) {
	k.strict = strict
	k.drain(h, true)
	k.strict = false
}

// collect folds shard status into the run: the first error (lowest shard
// index on ties — the serial run would have surfaced whichever came
// first; with errors on several shards at one barrier the tie is broken
// deterministically) and any Stop request.
func (pk *ParKernel) collect() {
	for _, k := range pk.parts {
		if k.err != nil && pk.err == nil {
			pk.err = k.err
		}
		if k.stopped {
			pk.stopped = true
		}
	}
}

// runWindows is the coordinator loop: open the window at the global
// minimum, drain all shards concurrently, renumber and deliver at the
// barrier; repeat until the bound (or the queue) is exhausted.
func (pk *ParKernel) runWindows(until Time, bounded bool) {
	pk.startWorkers()
	for {
		pk.collect()
		if pk.err != nil || pk.stopped {
			return
		}
		head := pk.pq.peek()
		if head == nil {
			return
		}
		w := head.t
		if bounded && w > until {
			return
		}
		pk.job = windowJob{h: w + pk.lookahead, strict: true}
		if bounded && !(pk.job.h <= until) {
			pk.job = windowJob{h: until, strict: false}
		}
		base := pk.seq
		for _, k := range pk.parts {
			sh := k.par
			sh.window = true
			sh.base = base
			k.seq = base
			sh.callers = sh.callers[:0]
			sh.calls = sh.calls[:0]
			sh.outbox = sh.outbox[:0]
			sh.assigned = sh.assigned[:0]
		}
		pk.gang.Run()
		for _, k := range pk.parts {
			k.par.window = false
		}
		pk.merge(base)
	}
}

// merge is the barrier's replay renumbering: walk the per-shard caller
// logs in ascending serial (t, seq) order — exactly the order the serial
// kernel would have made these schedules in — assigning each call its
// exact serial sequence number. Calls that created still-queued events
// re-stamp them in place; cross-shard sends become deliveries, injected
// in assignment order.
func (pk *ParKernel) merge(base uint64) {
	curs := pk.curs
	clear(curs)
	for {
		best := -1
		var bt Time
		var bseq uint64
		for s, k := range pk.parts {
			sh := k.par
			ci := curs[s].ci
			if ci >= len(sh.callers) {
				continue
			}
			rec := sh.callers[ci]
			key := rec.seq
			if key >= base {
				// A caller created earlier in this window: its exact seq
				// was assigned when its own creation call was replayed.
				key = sh.assigned[key-base]
			}
			if best < 0 || rec.t < bt || (rec.t == bt && key < bseq) {
				best, bt, bseq = s, rec.t, key
			}
		}
		if best < 0 {
			break
		}
		sh := pk.parts[best].par
		cu := &curs[best]
		rec := sh.callers[cu.ci]
		cu.ci++
		for i := 0; i < rec.n; i++ {
			c := sh.calls[cu.ki]
			cu.ki++
			g := pk.seq
			pk.seq++
			sh.assigned = append(sh.assigned, g)
			if c.ev == nil {
				m := sh.outbox[cu.oi]
				cu.oi++
				pk.deliveries = append(pk.deliveries, delivery{to: m.to, t: m.t, seq: g, fn: m.fn, arg: m.arg})
			} else if c.ev.gen == c.gen {
				c.ev.seq = g
			}
		}
	}
	for i := range pk.deliveries {
		d := &pk.deliveries[i]
		pk.parts[d.to].deliverEvent(d.t, d.seq, d.fn, d.arg)
		d.fn, d.arg = nil, nil
	}
	pk.deliveries = pk.deliveries[:0]
}

// Advance runs the partitioned simulation up to simulated time `until`;
// every shard's Now() is `until` afterwards (unless Stop was requested).
// The workers stay up for the next call — Close the kernel when done.
func (pk *ParKernel) Advance(until Time) error {
	if len(pk.parts) == 1 {
		return pk.parts[0].Advance(until)
	}
	if err := pk.haltErr(); err != nil {
		return err
	}
	if until < pk.Now() {
		return fmt.Errorf("sim: Advance(%g) before now (%g)", until, pk.Now())
	}
	pk.runWindows(until, true)
	pk.collect()
	if !pk.stopped {
		for _, k := range pk.parts {
			k.now = until
		}
	}
	return pk.err
}

// Run advances to `until` and stops the workers. It returns the first
// model error, if any.
func (pk *ParKernel) Run(until Time) error {
	if len(pk.parts) == 1 {
		return pk.parts[0].Run(until)
	}
	err := pk.Advance(until)
	pk.Close()
	return err
}

// RunUntilIdle advances until no events remain anywhere, returning the
// final simulated time (the latest shard time) and the first model error,
// if any. The workers are stopped.
func (pk *ParKernel) RunUntilIdle() (Time, error) {
	if len(pk.parts) == 1 {
		return pk.parts[0].RunUntilIdle()
	}
	if err := pk.haltErr(); err != nil {
		pk.Close()
		return pk.Now(), err
	}
	pk.runWindows(0, false)
	pk.collect()
	pk.Close()
	return pk.Now(), pk.err
}

// Stop requests that the run halt. From model code the request takes
// effect at the enclosing window's barrier: the stopping shard halts
// immediately, the others finish the window — so, unlike everything else
// about the partitioned kernel, post-Stop side effects may differ from
// the serial kernel's (which halts instantly). As on the serial kernel
// the halt is for good: later Run, Advance and RunUntilIdle calls
// dispatch nothing and return ErrStopped (or the run's first model
// error).
func (pk *ParKernel) Stop() {
	pk.stopped = true
	for _, k := range pk.parts {
		k.stopped = true
	}
}

// haltErr is the serial kernel's haltErr for the whole partitioned run.
func (pk *ParKernel) haltErr() error {
	pk.collect()
	switch {
	case !pk.stopped:
		return nil
	case pk.err != nil:
		return pk.err
	}
	return ErrStopped
}

// Err returns the run's first recorded error.
func (pk *ParKernel) Err() error { return pk.err }
