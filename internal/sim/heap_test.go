package sim

// Property tests of the event queues against the reference
// container/heap implementation the kernel used before the hot-path
// overhaul: for arbitrary randomized schedules — integral-cycle waits
// that ride the cycle wheel, constant-delay runs that ride the lanes,
// random delays that sift through the heap, pushes the wheel must turn
// away (past its span, non-integral, or ordered before their bucket's
// tail), Advance-style jumps, duplicate timestamps, interleaved pushes
// and pops, and canceled events sitting in any tier — every queue must
// pop in the identical (t, seq) order, so kernel determinism (and
// byte-identical suite output) is preserved by construction.

import (
	"container/heap"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// refHeap is the old heap.Interface implementation, kept verbatim as the
// ordering oracle.
type refHeap []*event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// queueShapes are the schedule shapes the three-tier queue is tested
// on, as fractions added to the generated delays: 0.5 keeps every
// stream and random delay off the wheel, so the lanes and the heap carry
// the schedule; 0 keeps them integral, the wheel's shape.
var queueShapes = []struct {
	name string
	frac Time
}{{"lanes", 0.5}, {"wheel", 0}}

// queueCase is one entry of the single-queue corpus: a queue and the
// fraction added to the generated delays.
type queueCase struct {
	name string
	mk   func() eventQueue
	frac Time
}

// queueCases is the single-queue corpus of the ordering tests: the bare
// 4-ary heap, and the kernel's three-tier queue on every shape.
func queueCases() []queueCase {
	cases := []queueCase{{"heap", func() eventQueue { return &eventHeap{} }, 0}}
	for _, shape := range queueShapes {
		cases = append(cases, queueCase{shape.name, func() eventQueue { return &laneQueue{} }, shape.frac})
	}
	return cases
}

// laneDelays are the fixed delays of the constant-delay streams: a
// stream's events arrive already sorted, the shape lanes exist for (and,
// at integral times within the span, the wheel).
var laneDelays = [4]Time{3, 5, 8, 13}

// mixedTimes draws n timestamps in schedule order from four sources:
// constant-delay streams (each advances by its own fixed step, so its
// events arrive sorted; they run past the wheel's span), coarse random
// times (plenty of (t, seq) ties, out of order), non-integral times,
// and exact repeats of the previous time. frac is added to the stream
// and coarse times.
func mixedTimes(st *rng.Stream, n int, frac Time) []Time {
	var stream [len(laneDelays)]Time
	ts := make([]Time, n)
	for i := range ts {
		switch r := st.Intn(10); {
		case r < 5:
			s := st.Intn(len(laneDelays))
			stream[s] += laneDelays[s]
			ts[i] = stream[s] + frac
		case r < 7 || i == 0:
			ts[i] = Time(st.Intn(40)) + frac
		case r < 8:
			ts[i] = Time(st.Intn(40)) + 0.25
		default:
			ts[i] = ts[i-1]
		}
	}
	return ts
}

// The tiers a pop can come from.
const (
	tierHeap = iota
	tierLane
	tierWheel
	numTiers
)

// queueStats counts where a program's pops came from, and how many
// pushes the program made that the wheel had to turn away because they
// came after their bucket's tail in time but before it in seq.
type queueStats struct {
	pops           int
	tierPops       [numTiers]int
	deadTierPops   [numTiers]int
	staleFallbacks int
}

func (s *queueStats) add(o queueStats) {
	s.pops += o.pops
	s.staleFallbacks += o.staleFallbacks
	for i := range s.tierPops {
		s.tierPops[i] += o.tierPops[i]
		s.deadTierPops[i] += o.deadTierPops[i]
	}
}

// nextTier reports the tier q's next pop comes from.
func nextTier(q eventQueue) int {
	var src int
	switch q := q.(type) {
	case *laneQueue:
		_, src = q.front()
	case *partitionedQueue:
		_, _, src = q.front()
	default:
		return tierHeap
	}
	switch {
	case src == fromHeap:
		return tierHeap
	case src < fromWheel:
		return tierLane
	}
	return tierWheel
}

// wheelLen returns the number of events on q's cycle wheels.
func wheelLen(q eventQueue) int {
	n := 0
	switch q := q.(type) {
	case *laneQueue:
		if q.wheel != nil {
			n = q.wheel.n
		}
	case *partitionedQueue:
		for i := range q.parts {
			n += wheelLen(&q.parts[i])
		}
	}
	return n
}

// runQueueProgram executes a queue program against q and container/heap
// side by side and reports the first divergence. Each byte is one
// operation, causal like the dispatch loop (pushes never precede the
// last popped time); frac is added to the stream and random delays:
//
//	0x00-0x3f  pop, and compare with the reference
//	0x40-0x47  advance: pop (and compare) everything due by
//	           now + 40 + 16*(b&7), then jump now there, as
//	           Kernel.Advance does — the next pushes may land past the
//	           wheel's span until a pop catches it up
//	0x48-0x4f  stale push: at the last pushed time, with a seq just
//	           below the last push's, like a cross-shard delivery
//	           renumbered at a ParKernel barrier; the wheel must not
//	           append it behind its bucket's tail
//	0x50-0x8f  push on constant-delay stream b&3 (now + laneDelays[b&3])
//	0x90-0x97  push far ahead (now + 64 + 16*(b&7)), past the wheel's span
//	0x98-0x9f  push after a non-integral delay (b&7) + 0.25
//	0xa0-0xcf  push after a random delay b%16
//	0xd0-0xe7  push at now: an equal-time tie
//	0xe8-0xff  cancel queued event b%size (it stays queued, marked dead)
//
// The rest drains after the program ends. size and peek are checked
// before every operation.
func runQueueProgram(q eventQueue, prog []byte, frac Time) (queueStats, error) {
	var ref refHeap
	var st queueStats
	now := Time(0)
	// Regular pushes take odd seqs, so each one leaves the even seq just
	// below it free for one stale push.
	seq := uint64(1)
	var last *event
	staleFree := false
	pop := func() error {
		tier := nextTier(q)
		want := heap.Pop(&ref).(*event)
		if got := q.pop(); got != want {
			return fmt.Errorf("pop %d: got %+v, want (t=%g seq=%d)", st.pops, got, want.t, want.seq)
		}
		st.pops++
		st.tierPops[tier]++
		if want.dead {
			st.deadTierPops[tier]++
		}
		now = want.t
		return nil
	}
	check := func() error {
		if q.size() != len(ref) {
			return fmt.Errorf("size %d, want %d", q.size(), len(ref))
		}
		if len(ref) > 0 && q.peek() != ref[0] {
			return fmt.Errorf("peek disagrees with the reference minimum")
		}
		return nil
	}
	push := func(ev *event) {
		q.push(ev)
		heap.Push(&ref, ev)
	}
	for _, b := range prog {
		if err := check(); err != nil {
			return st, err
		}
		var t Time
		switch {
		case b < 0x40:
			if len(ref) > 0 {
				if err := pop(); err != nil {
					return st, err
				}
			}
			continue
		case b < 0x48:
			until := now + Time(40+16*(b&7))
			for len(ref) > 0 && ref[0].t <= until {
				if err := pop(); err != nil {
					return st, err
				}
				if err := check(); err != nil {
					return st, err
				}
			}
			now = until
			continue
		case b < 0x50:
			if staleFree && last.t >= now {
				staleFree = false
				onWheel := wheelLen(q)
				push(&event{t: last.t, seq: last.seq - 1})
				if wheelLen(q) == onWheel {
					st.staleFallbacks++
				}
			}
			continue
		case b < 0x90:
			t = now + laneDelays[b&3] + frac
		case b < 0x98:
			t = now + 64 + Time(16*(b&7))
		case b < 0xa0:
			t = now + Time(b&7) + 0.25
		case b < 0xd0:
			t = now + Time(b%16) + frac
		case b < 0xe8:
			t = now
		default:
			if len(ref) > 0 {
				ref[int(b)%len(ref)].dead = true
			}
			continue
		}
		last = &event{t: t, seq: seq}
		seq += 2
		staleFree = true
		push(last)
	}
	for len(ref) > 0 {
		if err := check(); err != nil {
			return st, err
		}
		if err := pop(); err != nil {
			return st, err
		}
	}
	if q.size() != 0 || q.peek() != nil || q.pop() != nil {
		return st, fmt.Errorf("queue not empty after the reference drained")
	}
	return st, nil
}

// randomProgram draws a queue program of n operations, emitted in short
// runs of one opcode so streams burst and pops cluster.
func randomProgram(st *rng.Stream, n int) []byte {
	prog := make([]byte, 0, n)
	for len(prog) < n {
		b := byte(st.Intn(256))
		for r := 1 + st.Intn(6); r > 0 && len(prog) < n; r-- {
			prog = append(prog, b)
		}
	}
	return prog
}

// checkTiers fails t unless the corpus exercised the tiers its case
// exists for: on lane-shaped schedules the lanes serve pops, dead ones
// included; on wheel-shaped ones the wheel does, and the heap and the
// lanes still take the pushes the wheel turns away, stale ones among
// them.
func checkTiers(t *testing.T, name string, total queueStats) {
	t.Helper()
	switch name {
	case "lanes":
		if total.tierPops[tierLane] == 0 || total.deadTierPops[tierLane] == 0 {
			t.Errorf("lane tier not exercised: %+v", total)
		}
	case "wheel":
		if total.tierPops[tierWheel] == 0 || total.deadTierPops[tierWheel] == 0 ||
			total.tierPops[tierLane] == 0 || total.tierPops[tierHeap] == 0 ||
			total.staleFallbacks == 0 {
			t.Errorf("wheel tier or its fallbacks not exercised: %+v", total)
		}
	}
}

// TestEventQueueMatchesContainerHeap: pushing the same randomized
// schedule — constant-delay runs, random times and ties — into each
// queue and into container/heap, then draining, yields the identical
// pop order.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	for _, c := range queueCases() {
		t.Run(c.name, func(t *testing.T) {
			var total queueStats
			err := quick.Check(func(seed uint64, sizeRaw uint16) bool {
				st := rng.New(seed)
				ts := mixedTimes(st, 1+int(sizeRaw%600), c.frac)
				q := c.mk()
				var ref refHeap
				for i, at := range ts {
					ev := &event{t: at, seq: uint64(i)}
					q.push(ev)
					heap.Push(&ref, ev)
				}
				for i := range ts {
					tier := nextTier(q)
					got := q.pop()
					want := heap.Pop(&ref).(*event)
					if got != want {
						t.Logf("pop %d: got (t=%g seq=%d), want (t=%g seq=%d)",
							i, got.t, got.seq, want.t, want.seq)
						return false
					}
					total.tierPops[tier]++
				}
				return q.size() == 0
			}, &quick.Config{MaxCount: 200})
			if err != nil {
				t.Error(err)
			}
			if c.name == "wheel" && (total.tierPops[tierWheel] == 0 || total.tierPops[tierLane] == 0) {
				t.Errorf("wheel or lane tier not exercised: %+v", total)
			}
		})
	}
}

// TestEventQueueInterleavedMatchesContainerHeap: arbitrary interleavings
// of pushes, pops, cancels and Advance jumps — the shape the dispatch
// loop actually produces, where firing events schedule new ones — agree
// with container/heap at every step. Each case must also exercise the
// tiers it exists for (checkTiers), or the generator is not testing
// them.
func TestEventQueueInterleavedMatchesContainerHeap(t *testing.T) {
	for _, c := range queueCases() {
		t.Run(c.name, func(t *testing.T) {
			var total queueStats
			err := quick.Check(func(seed uint64, opsRaw uint16) bool {
				prog := randomProgram(rng.New(seed), 10+int(opsRaw%2000))
				st, err := runQueueProgram(c.mk(), prog, c.frac)
				if err != nil {
					t.Log(err)
					return false
				}
				total.add(st)
				return true
			}, &quick.Config{MaxCount: 100})
			if err != nil {
				t.Fatal(err)
			}
			checkTiers(t, c.name, total)
		})
	}
}

// TestEventQueueNonCausalPushes: the queue contract does not ask pushes
// to follow the last pop — only the kernel's own schedulers are causal —
// so pushes at any time, before or after what has already been popped,
// still pop in (t, seq) order against container/heap. On the three-tier
// queue this drives pushes below the wheel's span, which must fall back
// rather than alias a bucket.
func TestEventQueueNonCausalPushes(t *testing.T) {
	for _, c := range queueCases() {
		t.Run(c.name, func(t *testing.T) {
			err := quick.Check(func(seed uint64, opsRaw uint16) bool {
				st := rng.New(seed)
				q := c.mk()
				var ref refHeap
				for i := 0; i < 10+int(opsRaw%1500); i++ {
					if st.Intn(3) == 0 && len(ref) > 0 {
						if q.pop() != heap.Pop(&ref).(*event) {
							return false
						}
						continue
					}
					ev := &event{t: Time(st.Intn(200)) + c.frac, seq: uint64(i)}
					q.push(ev)
					heap.Push(&ref, ev)
				}
				for len(ref) > 0 {
					if q.pop() != heap.Pop(&ref).(*event) {
						return false
					}
				}
				return q.size() == 0
			}, &quick.Config{MaxCount: 100})
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// TestKernelScheduleOrderRandomized: end to end through the kernel —
// random same-and-distinct-time schedules with a sprinkling of cancels
// fire strictly in (t, seq) order, identically across reruns.
func TestKernelScheduleOrderRandomized(t *testing.T) {
	run := func(seed uint64, n int) []int {
		st := rng.New(seed)
		k := NewKernel()
		var order []int
		timers := make([]Timer, 0, n)
		for i := 0; i < n; i++ {
			i := i
			timers = append(timers, k.Schedule(Time(st.Intn(16)), func() {
				order = append(order, i)
			}))
		}
		// Cancel a deterministic random subset.
		for i := range timers {
			if st.Float64() < 0.2 {
				timers[i].Cancel()
			}
		}
		if _, err := k.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	err := quick.Check(func(seed uint64, sizeRaw uint8) bool {
		n := 1 + int(sizeRaw%200)
		a := run(seed, n)
		b := run(seed, n)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}
