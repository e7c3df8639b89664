package sim

import "math/bits"

// This file holds the kernel's event ordering. The pending-event set is
// a three-tier queue (wheelQueue) on the (t, seq) order:
//
//   - a near wheel: one FIFO bucket per integral time in a 128-cycle
//     span starting at the 64-cycle block of lo, the floor of the latest
//     time taken. The models count time in whole HWP cycles — op counts,
//     memory and parcel overheads — so most waits land a few cycles ahead
//     and append to their bucket in O(1); the first occupied bucket is
//     one bit scan away.
//   - a far wheel: one unsorted FIFO per 64-cycle block for the 64
//     blocks after the near span, so integral times up to ~4096 cycles
//     ahead — the parcel hops that land when a visit ends plus a
//     500-cycle latency — also push in O(1). A block cascades into the
//     near wheel, one bucket append per event, when it enters the near
//     span.
//   - a 4-ary min-heap for everything else: non-integral times and
//     times past the far span.
//
// The front is the minimum of the heap top and the first occupied near
// bucket — or, with the near wheel empty, the far tier's first block —
// so the pop order is the exact (t, seq) total order the heap alone
// would produce. This is the hierarchical timing-wheel idea (Varghese &
// Lauck, "Hashed and Hierarchical Timing Wheels", SOSP 1987) cut down to
// what the models need: two wheel levels for the whole-cycle waits that
// carry nearly every event, and the heap as the catch-all. The Kernel
// holds a concrete wheelQueue, so the hot paths stay devirtualized.

// eventQueue is the event-ordering contract: push any number of events,
// pop them in strictly ascending (t, seq) order. pop on an empty queue
// returns nil in every implementation (the contract test in
// queue_test.go pins them to the same answer). peek returns the next
// event without removing it, nil when empty.
type eventQueue interface {
	push(*event)
	pop() *event
	peek() *event
	size() int
}

var (
	_ eventQueue = (*eventHeap)(nil)
	_ eventQueue = (*wheelQueue)(nil)
)

// before reports whether a precedes b in the (t, seq) order.
func before(a, b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// eventHeap is a 4-ary min-heap on (t, seq) specialized to *event: the
// comparisons are inlined and nothing is boxed, unlike container/heap's
// interface-driven sift. The wider fan-out halves the tree depth of the
// binary heap, which pays on the pop-heavy dispatch loop. It is the
// catch-all tier of wheelQueue.
type eventHeap []*event

// push inserts ev, sifting up with inlined (t, seq) comparisons.
func (q *eventHeap) push(ev *event) {
	a := append(*q, ev)
	i := len(a) - 1
	t, seq := ev.t, ev.seq
	for i > 0 {
		pi := (i - 1) >> 2
		p := a[pi]
		if p.t < t || (p.t == t && p.seq < seq) {
			break
		}
		a[i] = p
		i = pi
	}
	a[i] = ev
	*q = a
}

// pop removes and returns the minimum event, nil when the heap is empty.
func (q *eventHeap) pop() *event {
	a := *q
	n := len(a) - 1
	if n < 0 {
		return nil
	}
	top := a[0]
	last := a[n]
	a[n] = nil
	a = a[:n]
	*q = a
	if n > 0 {
		i := 0
		t, seq := last.t, last.seq
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m, mc := c, a[c]
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				cj := a[j]
				if cj.t < mc.t || (cj.t == mc.t && cj.seq < mc.seq) {
					m, mc = j, cj
				}
			}
			if t < mc.t || (t == mc.t && seq < mc.seq) {
				break
			}
			a[i] = mc
			i = m
		}
		a[i] = last
	}
	return top
}

// peek returns the minimum event without removing it, nil when empty.
func (q *eventHeap) peek() *event {
	if len(*q) == 0 {
		return nil
	}
	return (*q)[0]
}

// size returns the number of queued events.
func (q *eventHeap) size() int { return len(*q) }

// Front sources, as returned by wheelQueue.front for take: fromHeap
// names the heap, fromWheel+b near bucket b, and fromFar+s the lone
// event of far slot s.
const (
	fromHeap  = -1
	fromWheel = 0
	fromFar   = fromWheel + nearSize
)

// The wheel tiers count integral time in blocks of blockSize cycles:
// block b holds the cycles [b·64, b·64+64), so one block's occupancy is
// one bitmap word.
const (
	blockBits  = 6
	blockSize  = 1 << blockBits
	nearBlocks = 2                      // blocks in the near wheel's span
	nearSize   = nearBlocks * blockSize // near wheel buckets, one per cycle
	farBlocks  = 64                     // blocks in the far tier's span
)

// maxWheelTime bounds the times the wheel takes: every integral float64
// below 2^53 converts to uint64 exactly.
const maxWheelTime = 1 << 53

// cycleWheel is the near tier of wheelQueue: one bucket per cycle of
// the span [B·64, B·64+128), where B is the block of the queue's first
// cycle lo — lo's block and the next, so the span always holds one whole
// block past lo's. Bucket c&127 holds the events at time c in push
// order, which is seq order: each bucket is a circular singly-linked
// FIFO threaded through event.next and addressed by its tail (tail.next
// is the head). occ[w] has bit i set when bucket w·64+i is non-empty, so
// block b's occupancy is the word occ[b&1].
type cycleWheel struct {
	tails [nearSize]*event
	occ   [nearBlocks]uint64
	n     int
}

// add appends ev, at integral time c, to its bucket.
func (w *cycleWheel) add(ev *event, c uint64) {
	b := c & (nearSize - 1)
	if tail := w.tails[b]; tail == nil {
		ev.next = ev
		w.occ[b>>blockBits] |= 1 << (b & (blockSize - 1))
	} else {
		ev.next = tail.next
		tail.next = ev
	}
	w.tails[b] = ev
	w.n++
}

// first returns the bucket holding the earliest wheel time; the wheel
// must be non-empty. No queued time precedes lo, so the word of lo's
// block holds only cycles from lo on and comes first.
func (w *cycleWheel) first(lo uint64) int {
	i := int(lo>>blockBits) & 1
	if m := w.occ[i]; m != 0 {
		return i<<blockBits | bits.TrailingZeros64(m)
	}
	i ^= 1
	return i<<blockBits | bits.TrailingZeros64(w.occ[i])
}

// take removes and returns the head of bucket b, which must be
// non-empty.
func (w *cycleWheel) take(b int) *event {
	tail := w.tails[b]
	head := tail.next
	if head == tail {
		w.tails[b] = nil
		w.occ[b>>blockBits] &^= 1 << (b & (blockSize - 1))
	} else {
		tail.next = head.next
	}
	head.next = nil
	w.n--
	return head
}

// farWheel is the far tier of wheelQueue: one FIFO per block for the
// farBlocks blocks after the near span, B+2 to B+65. Slot b&63 holds
// block b's events in push order, unsorted by time, as a circular list
// through event.next addressed by its tail like a near bucket; occ has
// bit b&63 set when the slot is non-empty. A block is sorted only when
// it cascades into the near wheel, one bucket append per event.
type farWheel struct {
	tails [farBlocks]*event
	occ   uint64
	n     int
}

// add appends ev to block b's slot.
func (f *farWheel) add(ev *event, b uint64) {
	s := b & (farBlocks - 1)
	if tail := f.tails[s]; tail == nil {
		ev.next = ev
		f.occ |= 1 << s
	} else {
		ev.next = tail.next
		tail.next = ev
	}
	f.tails[s] = ev
	f.n++
}

// first returns the earliest occupied block at or after block from, the
// far span's first; the tier must be non-empty.
func (f *farWheel) first(from uint64) uint64 {
	r := int(from & (farBlocks - 1))
	return from + uint64(bits.TrailingZeros64(bits.RotateLeft64(f.occ, -r)))
}

// take removes and returns the event of slot s, which must hold exactly
// one.
func (f *farWheel) take(s int) *event {
	ev := f.tails[s]
	f.tails[s] = nil
	f.occ &^= 1 << s
	f.n--
	ev.next = nil
	return ev
}

// wheelQueue is the kernel's pending-event set: a two-level cycle wheel
// for integral times up to ~4096 cycles ahead and a 4-ary heap for the
// rest. Events must be pushed in ascending seq order, as the kernel
// stamps them.
//
// push puts an event at integral cycle c on the near wheel when c lies
// in the near span [lo, B·64+128), on the far tier when c's block is one
// of the far span's, and on the heap otherwise. No queued time precedes
// lo: take raises lo only to the time of the front, and front only to
// the block before the first far block when nothing precedes that
// block; neither lowers it. When lo enters a new block, the far blocks
// that enter the near span cascade into it (enter), so front cascades
// the first far block when the near wheel runs empty and no heap event
// precedes that block, unless it holds a single event, which front
// offers from its slot as it stands. A block cascades before any push
// can reach the near buckets of its cycles, and it cascades in push
// order, so with ascending seqs every bucket stays in seq order. So each
// queued near cycle has a bucket of its own, every far event follows
// every near one, and the minimum of the heap top, the first occupied
// bucket and, with the near wheel empty, the first far block is the
// global (t, seq) minimum. The near wheel and the far tier are each
// allocated on their first push, so a kernel that never schedules an
// integral time within their spans never pays for them.
type wheelQueue struct {
	heap  eventHeap
	wheel *cycleWheel
	far   *farWheel
	lo    uint64 // the wheel's first cycle: no queued time precedes it
}

// push inserts ev into the near wheel, the far tier or the heap.
func (q *wheelQueue) push(ev *event) {
	if t := ev.t; t >= 0 && t < maxWheelTime {
		// c < lo wraps both differences past their spans, so one compare
		// bounds each tier at both ends.
		if c := uint64(t); Time(c) == t {
			if c-q.lo < nearSize-(q.lo&(blockSize-1)) {
				if q.wheel == nil {
					q.wheel = new(cycleWheel)
				}
				q.wheel.add(ev, c)
				return
			}
			if b := c >> blockBits; b-(q.lo>>blockBits+nearBlocks) < farBlocks {
				if q.far == nil {
					q.far = new(farWheel)
				}
				q.far.add(ev, b)
				return
			}
		}
	}
	q.heap.push(ev)
}

// enter cascades the far blocks that enter the near span now that lo has
// left block b0 for a later one: lo's block and the next. No queued time
// precedes lo, so the far blocks before lo's hold nothing and neither
// slot can hold a block other than the one cascaded.
func (q *wheelQueue) enter(b0 uint64) {
	nb := q.lo >> blockBits
	for b := max(nb, b0+nearBlocks); b < nb+nearBlocks; b++ {
		if q.far.occ&(1<<(b&(farBlocks-1))) != 0 {
			q.cascade(b)
		}
	}
}

// cascade moves far block b, which must lie in the near span, onto the
// near wheel in push order.
func (q *wheelQueue) cascade(b uint64) {
	f := q.far
	s := b & (farBlocks - 1)
	tail := f.tails[s]
	f.tails[s] = nil
	f.occ &^= 1 << s
	if q.wheel == nil {
		q.wheel = new(cycleWheel)
	}
	for ev := tail.next; ; {
		next := ev.next
		f.n--
		q.wheel.add(ev, uint64(ev.t))
		if ev == tail {
			return
		}
		ev = next
	}
}

// front returns the minimum event and its source — fromHeap,
// fromWheel+bucket or fromFar+slot — for take; nil when the queue is
// empty. The dispatch loop computes it once per event and removes
// through take, so the front is never searched twice. When the near
// wheel is empty, the far tier's minimum is in its first block: a block
// of one event is the minimum as it stands, so front compares it in its
// slot; a larger block cascades first, unless a heap event precedes it.
func (q *wheelQueue) front() (*event, int) {
	var best *event
	src := fromHeap
	if len(q.heap) > 0 {
		best = q.heap[0]
	}
	w := q.wheel
	if f := q.far; (w == nil || w.n == 0) && f != nil && f.n != 0 {
		b := f.first(q.lo>>blockBits + nearBlocks)
		if s := int(b & (farBlocks - 1)); f.tails[s].next == f.tails[s] {
			if ev := f.tails[s]; best == nil || before(ev, best) {
				best, src = ev, fromFar+s
			}
			return best, src
		}
		if best != nil && best.t < Time(b<<blockBits) {
			return best, src
		}
		// Raising lo only to the block before b's keeps the wheel for
		// pushes just ahead of now while the front waits for a window.
		b0 := q.lo >> blockBits
		q.lo = (b - 1) << blockBits
		q.enter(b0)
		w = q.wheel
	}
	if w != nil && w.n != 0 {
		b := w.first(q.lo)
		if ev := w.tails[b].next; best == nil || before(ev, best) {
			best, src = ev, fromWheel+b
		}
	}
	return best, src
}

// take removes the front event of src, as returned by front, and moves
// the wheel's span up to the removed event's cycle, cascading the far
// blocks that enter it.
func (q *wheelQueue) take(src int) {
	var ev *event
	switch {
	case src == fromHeap:
		ev = q.heap.pop()
	case src < fromFar:
		ev = q.wheel.take(src - fromWheel)
	default:
		ev = q.far.take(src - fromFar)
	}
	if t := ev.t; t >= 0 && t < maxWheelTime {
		if c := uint64(t); c > q.lo {
			b0 := q.lo >> blockBits
			q.lo = c
			if f := q.far; f != nil && f.n != 0 && c>>blockBits != b0 {
				q.enter(b0)
			}
		}
	}
}

// pop removes and returns the minimum event, nil when empty.
func (q *wheelQueue) pop() *event {
	ev, src := q.front()
	if ev != nil {
		q.take(src)
	}
	return ev
}

// peek returns the minimum event without removing it, nil when empty.
func (q *wheelQueue) peek() *event {
	ev, _ := q.front()
	return ev
}

// size returns the number of queued events, every tier included.
func (q *wheelQueue) size() int {
	n := len(q.heap)
	if q.wheel != nil {
		n += q.wheel.n
	}
	if q.far != nil {
		n += q.far.n
	}
	return n
}
