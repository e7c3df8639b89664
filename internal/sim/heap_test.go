package sim

// Property tests of the event queues against the reference
// container/heap implementation the kernel used before the hot-path
// overhaul: for arbitrary randomized schedules — constant-delay runs
// that ride the lanes, random delays that sift through the heap,
// duplicate timestamps, interleaved pushes and pops, and canceled events
// sitting in either tier — every queue must pop in the identical
// (t, seq) order, so kernel determinism (and byte-identical suite
// output) is preserved by construction.

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

// queueImpls is the single-queue corpus of the ordering tests: the bare
// 4-ary heap and the kernel's two-tier lane queue.
func queueImpls() map[string]func() eventQueue {
	return map[string]func() eventQueue{
		"heap":  func() eventQueue { return &eventHeap{} },
		"lanes": func() eventQueue { return &laneQueue{} },
	}
}

// laneDelays are the fixed delays of the constant-delay streams: a
// stream's events arrive already sorted, the shape lanes exist for.
var laneDelays = [4]Time{3, 5, 8, 13}

// mixedTimes draws n timestamps in schedule order from three sources:
// constant-delay streams (each advances by its own fixed step, so its
// events arrive sorted), coarse random times (plenty of (t, seq) ties,
// out of order), and exact repeats of the previous time.
func mixedTimes(st *rng.Stream, n int) []Time {
	var stream [len(laneDelays)]Time
	ts := make([]Time, n)
	for i := range ts {
		switch r := st.Intn(10); {
		case r < 5:
			s := st.Intn(len(laneDelays))
			stream[s] += laneDelays[s]
			ts[i] = stream[s]
		case r < 8 || i == 0:
			ts[i] = Time(st.Intn(40))
		default:
			ts[i] = ts[i-1]
		}
	}
	return ts
}

// queueStats counts where a program's pops came from.
type queueStats struct {
	pops, lanePops, deadLanePops int
}

// nextFromLane reports whether q's next pop comes from a lane.
func nextFromLane(q eventQueue) bool {
	switch q := q.(type) {
	case *laneQueue:
		ev, src := q.front()
		return ev != nil && src != fromHeap
	case *partitionedQueue:
		ev, _, src := q.front()
		return ev != nil && src != fromHeap
	}
	return false
}

// runQueueProgram executes a queue program against q and container/heap
// side by side and reports the first divergence. Each byte is one
// operation, causal like the dispatch loop (pushes never precede the
// last popped time):
//
//	0x00-0x4f  pop, and compare with the reference
//	0x50-0x9f  push on constant-delay stream b&3 (now + laneDelays[b&3])
//	0xa0-0xcf  push after a random delay b%16
//	0xd0-0xe7  push at now: an equal-time tie
//	0xe8-0xff  cancel queued event b%size (it stays queued, marked dead)
//
// The rest drains after the program ends. size and peek are checked
// before every operation.
func runQueueProgram(q eventQueue, prog []byte) (queueStats, error) {
	var ref refHeap
	var st queueStats
	now := Time(0)
	seq := uint64(0)
	pop := func() error {
		lane := nextFromLane(q)
		want := heap.Pop(&ref).(*event)
		if got := q.pop(); got != want {
			return fmt.Errorf("pop %d: got %+v, want (t=%g seq=%d)", st.pops, got, want.t, want.seq)
		}
		st.pops++
		if lane {
			st.lanePops++
			if want.dead {
				st.deadLanePops++
			}
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
	for _, b := range prog {
		if err := check(); err != nil {
			return st, err
		}
		var t Time
		switch {
		case b < 0x50:
			if len(ref) > 0 {
				if err := pop(); err != nil {
					return st, err
				}
			}
			continue
		case b < 0xa0:
			t = now + laneDelays[b&3]
		case b < 0xd0:
			t = now + Time(b%16)
		case b < 0xe8:
			t = now
		default:
			if len(ref) > 0 {
				ref[int(b)%len(ref)].dead = true
			}
			continue
		}
		ev := &event{t: t, seq: seq}
		seq++
		q.push(ev)
		heap.Push(&ref, ev)
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

// TestEventQueueMatchesContainerHeap: pushing the same randomized
// schedule — constant-delay runs, random times and ties — into each
// queue and into container/heap, then draining, yields the identical
// pop order.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			err := quick.Check(func(seed uint64, sizeRaw uint16) bool {
				st := rng.New(seed)
				ts := mixedTimes(st, 1+int(sizeRaw%600))
				q := mk()
				var ref refHeap
				for i, at := range ts {
					ev := &event{t: at, seq: uint64(i)}
					q.push(ev)
					heap.Push(&ref, ev)
				}
				for i := range ts {
					got := q.pop()
					want := heap.Pop(&ref).(*event)
					if got != want {
						t.Logf("pop %d: got (t=%g seq=%d), want (t=%g seq=%d)",
							i, got.t, got.seq, want.t, want.seq)
						return false
					}
				}
				return q.size() == 0
			}, &quick.Config{MaxCount: 200})
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// TestEventQueueInterleavedMatchesContainerHeap: arbitrary interleavings
// of pushes, pops and cancels — the shape the dispatch loop actually
// produces, where firing events schedule new ones — agree with
// container/heap at every step. The lane queue must also actually serve
// pops, dead ones included, from its lanes across the corpus, or the
// generator is not testing the lane tier.
func TestEventQueueInterleavedMatchesContainerHeap(t *testing.T) {
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			var total queueStats
			err := quick.Check(func(seed uint64, opsRaw uint16) bool {
				prog := randomProgram(rng.New(seed), 10+int(opsRaw%2000))
				st, err := runQueueProgram(mk(), prog)
				if err != nil {
					t.Log(err)
					return false
				}
				total.pops += st.pops
				total.lanePops += st.lanePops
				total.deadLanePops += st.deadLanePops
				return true
			}, &quick.Config{MaxCount: 100})
			if err != nil {
				t.Fatal(err)
			}
			if name == "lanes" && (total.lanePops == 0 || total.deadLanePops == 0) {
				t.Errorf("lane tier not exercised: %+v", total)
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
