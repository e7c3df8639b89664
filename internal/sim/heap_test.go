package sim

// Property tests of the event queues against the reference
// container/heap implementation the kernel used before the hot-path
// overhaul: for arbitrary randomized schedules — integral-cycle waits
// that ride the near wheel, hops hundreds to thousands of cycles ahead
// that ride the far tier and cascade, constant-delay runs and random
// delays, pushes the wheel must turn away to the heap (past the far
// span or non-integral), Run-style jumps across blocks, duplicate
// timestamps, and interleaved pushes and pops — every queue must pop in
// the identical (t, seq) order, so kernel determinism (and
// byte-identical suite output) is preserved by construction. Pushes
// into the kernel's wheelQueue come in ascending seq order, as the
// kernel stamps them; the bare heap takes any order.

import (
	"container/heap"
	"fmt"
	"math"
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

// queueShape is a schedule shape: frac is added to the generated stream
// and random delays, which mul scales first.
type queueShape struct {
	name string
	frac Time
	mul  Time
}

// queueShapes are the schedule shapes the queue is tested on: 0.5 keeps
// every stream and random delay off the wheel, so the heap carries the
// schedule ("lanes" names that shape: ordered non-integral streams);
// 0 keeps them integral, the near wheel's shape; and a scale of 67 cycles stretches the integral delays over
// 64-4096 cycles, the far tier's shape (67 is coprime to the 64-cycle
// block, so the times spread over every bucket).
var queueShapes = []queueShape{{"lanes", 0.5, 1}, {"wheel", 0, 1}, {"far", 0, 67}}

// queueCase is one entry of the single-queue corpus: a queue and the
// shape of its schedules.
type queueCase struct {
	name  string
	mk    func() eventQueue
	shape queueShape
}

// queueCases is the single-queue corpus of the ordering tests: the bare
// 4-ary heap, and the kernel's wheelQueue on every shape.
func queueCases() []queueCase {
	cases := []queueCase{{"heap", func() eventQueue { return &eventHeap{} }, queueShape{"heap", 0, 1}}}
	for _, shape := range queueShapes {
		cases = append(cases, queueCase{shape.name, func() eventQueue { return &wheelQueue{} }, shape})
	}
	return cases
}

// laneDelays are the fixed delays of the constant-delay streams: a
// stream's events arrive already sorted, on the wheel at integral times
// within its span and on the heap otherwise.
var laneDelays = [4]Time{3, 5, 8, 13}

// mixedTimes draws n timestamps in schedule order from four sources:
// constant-delay streams (each advances by its own fixed step, so its
// events arrive sorted; they run past the wheel's span), coarse random
// times (plenty of (t, seq) ties, out of order), non-integral times,
// and exact repeats of the previous time. The stream steps and coarse
// times are scaled by sh.mul, and sh.frac is added to them.
func mixedTimes(st *rng.Stream, n int, sh queueShape) []Time {
	var stream [len(laneDelays)]Time
	ts := make([]Time, n)
	for i := range ts {
		switch r := st.Intn(10); {
		case r < 5:
			s := st.Intn(len(laneDelays))
			stream[s] += laneDelays[s] * sh.mul
			ts[i] = stream[s] + sh.frac
		case r < 7 || i == 0:
			ts[i] = Time(st.Intn(40))*sh.mul + sh.frac
		case r < 8:
			ts[i] = Time(st.Intn(40)) + 0.25
		default:
			ts[i] = ts[i-1]
		}
	}
	return ts
}

// The tiers a pop can come from: the heap, or the wheel (a near bucket
// or a lone far event).
const (
	tierHeap = iota
	tierWheel
	numTiers
)

// queueStats counts where a program's pops came from, how many pushes
// landed on the far tier, and how many pushes repeated the last pushed
// time on the near wheel or the far tier, appending behind a tail of
// their own time.
type queueStats struct {
	pops        int
	tierPops    [numTiers]int
	farPushes   int
	tailRepeats int
}

func (s *queueStats) add(o queueStats) {
	s.pops += o.pops
	s.farPushes += o.farPushes
	s.tailRepeats += o.tailRepeats
	for i := range s.tierPops {
		s.tierPops[i] += o.tierPops[i]
	}
}

// nextTier reports the tier q's next pop comes from.
func nextTier(q eventQueue) int {
	if wq, ok := q.(*wheelQueue); ok {
		if _, src := wq.front(); src != fromHeap {
			return tierWheel
		}
	}
	return tierHeap
}

// wheelLen returns the number of events on q's near wheel.
func wheelLen(q eventQueue) int {
	if wq, ok := q.(*wheelQueue); ok && wq.wheel != nil {
		return wq.wheel.n
	}
	return 0
}

// farLen returns the number of events on q's far tier.
func farLen(q eventQueue) int {
	if wq, ok := q.(*wheelQueue); ok && wq.far != nil {
		return wq.far.n
	}
	return 0
}

// runQueueProgram executes a queue program against q and container/heap
// side by side and reports the first divergence. Each byte is one
// operation, causal like the dispatch loop (pushes never precede the
// last popped time) and, like the kernel, stamping its pushes with
// ascending seqs. sh.mul scales the stream and random delays and the
// short advances, and sh.frac is added to every push but the
// non-integral ones and the ties; B is now's 64-cycle block:
//
//	0x00-0x2f  pop, and compare with the reference
//	0x30-0x37  push on a block edge: the first (b&4 clear) or last cycle
//	           of block B+1, B+2, B+65 or B+66 (b&3) — the near span's
//	           second block, the far span's first and last, and past it
//	0x38-0x3b  push past the far span (now + 4224 + 61*(b&3)): the heap
//	0x3c-0x3f  jump across blocks: advance to now + 64*(1+21*(b&3)) + 5,
//	           so the next pop moves the queue's first cycle up to 66
//	           blocks at once
//	0x40-0x47  advance: pop (and compare) everything due by
//	           now + 40 + 16*(b&7), then jump now there, as Kernel.Run
//	           does — the next pushes may land past the wheel's span
//	           until a pop catches it up
//	0x48-0x4f  repeat push: at the last pushed time, if it is not
//	           past, so it appends behind a tail of its own time in a
//	           near bucket, a far block or the heap
//	0x50-0x8f  push on constant-delay stream b&3 (now + laneDelays[b&3])
//	0x90-0x97  push far ahead (now + 64 + 512*(b&7)), onto the far tier
//	0x98-0x9f  push after a non-integral delay (b&7) + 0.25
//	0xa0-0xcf  push after a random delay b%16
//	0xd0-0xe7  push at now: an equal-time tie
//	0xe8-0xff  push at the time of queued event b%size: a tie with an
//	           event already in any tier
//
// The rest drains after the program ends. size and peek are checked
// before every operation.
func runQueueProgram(q eventQueue, prog []byte, sh queueShape) (queueStats, error) {
	var ref refHeap
	var st queueStats
	now := Time(0)
	var seq uint64
	last := Time(-1) // the last pushed time
	pop := func() error {
		tier := nextTier(q)
		want := heap.Pop(&ref).(*event)
		if got := q.pop(); got != want {
			return fmt.Errorf("pop %d: got %+v, want (t=%g seq=%d)", st.pops, got, want.t, want.seq)
		}
		st.pops++
		st.tierPops[tier]++
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
	// push reports whether ev went onto the near wheel or the far tier.
	push := func(ev *event) bool {
		onWheel, onFar := wheelLen(q), farLen(q)
		q.push(ev)
		heap.Push(&ref, ev)
		if farLen(q) > onFar {
			st.farPushes++
		}
		return wheelLen(q) > onWheel || farLen(q) > onFar
	}
	advance := func(until Time) error {
		for len(ref) > 0 && ref[0].t <= until {
			if err := pop(); err != nil {
				return err
			}
			if err := check(); err != nil {
				return err
			}
		}
		now = until
		return nil
	}
	for _, b := range prog {
		if err := check(); err != nil {
			return st, err
		}
		var t Time
		repeat := false
		switch {
		case b < 0x30:
			if len(ref) > 0 {
				if err := pop(); err != nil {
					return st, err
				}
			}
			continue
		case b < 0x38:
			blk := Time(math.Floor(float64(now)/blockSize)) + [4]Time{1, 2, 65, 66}[b&3]
			t = blk*blockSize + sh.frac
			if b&4 != 0 {
				t += blockSize - 1
			}
		case b < 0x3c:
			t = now + 4224 + 61*Time(b&3) + sh.frac
		case b < 0x48:
			jump := Time(40+16*(b&7)) * sh.mul
			if b < 0x40 {
				jump = 64*(1+21*Time(b&3)) + 5
			}
			if err := advance(now + jump); err != nil {
				return st, err
			}
			continue
		case b < 0x50:
			if last < now {
				continue
			}
			t, repeat = last, true
		case b < 0x90:
			t = now + laneDelays[b&3]*sh.mul + sh.frac
		case b < 0x98:
			t = now + 64 + 512*Time(b&7) + sh.frac
		case b < 0xa0:
			t = now + Time(b&7) + 0.25
		case b < 0xd0:
			t = now + Time(b%16)*sh.mul + sh.frac
		case b < 0xe8:
			t = now
		default:
			if len(ref) == 0 {
				continue
			}
			t = ref[int(b)%len(ref)].t
		}
		if push(&event{t: t, seq: seq}) && repeat {
			st.tailRepeats++
		}
		seq++
		last = t
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
// exists for: on lane-shaped schedules the heap serves pops; on
// wheel-shaped ones the wheel does, repeated times append behind their
// bucket's tail, and the heap still takes the pushes the wheel turns
// away; on far-shaped ones the far tier takes pushes, repeated times
// among them, and the wheel serves the pops its blocks cascade into.
func checkTiers(t *testing.T, name string, total queueStats) {
	t.Helper()
	switch name {
	case "lanes":
		if total.tierPops[tierHeap] == 0 {
			t.Errorf("heap tier not exercised: %+v", total)
		}
	case "wheel":
		if total.tierPops[tierWheel] == 0 || total.tierPops[tierHeap] == 0 ||
			total.tailRepeats == 0 {
			t.Errorf("wheel tier or its fallback not exercised: %+v", total)
		}
	case "far":
		if total.farPushes == 0 || total.tailRepeats == 0 ||
			total.tierPops[tierWheel] == 0 || total.tierPops[tierHeap] == 0 {
			t.Errorf("far tier or its cascade not exercised: %+v", total)
		}
	}
}

// TestEventQueueMatchesContainerHeap: pushing the same randomized
// schedule — constant-delay runs, random times and ties — into each
// queue and into container/heap, then draining, yields the identical
// pop order. The bare heap takes its seqs scrambled (multiplying by an
// odd constant permutes them), since it does not rely on push order.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	for _, c := range queueCases() {
		t.Run(c.name, func(t *testing.T) {
			var total queueStats
			err := quick.Check(func(seed uint64, sizeRaw uint16) bool {
				st := rng.New(seed)
				ts := mixedTimes(st, 1+int(sizeRaw%600), c.shape)
				q := c.mk()
				var ref refHeap
				for i, at := range ts {
					ev := &event{t: at, seq: uint64(i)}
					if c.name == "heap" {
						ev.seq *= 0x9e3779b97f4a7c15
					}
					onFar := farLen(q)
					q.push(ev)
					heap.Push(&ref, ev)
					if farLen(q) > onFar {
						total.farPushes++
					}
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
			if c.name == "wheel" && (total.tierPops[tierWheel] == 0 || total.tierPops[tierHeap] == 0) {
				t.Errorf("wheel or heap tier not exercised: %+v", total)
			}
			if c.name == "far" && (total.tierPops[tierWheel] == 0 || total.farPushes == 0) {
				t.Errorf("far tier or its cascade not exercised: %+v", total)
			}
		})
	}
}

// TestEventQueueInterleavedMatchesContainerHeap: arbitrary interleavings
// of pushes, pops and Run jumps — the shape the dispatch
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
				st, err := runQueueProgram(c.mk(), prog, c.shape)
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
// queue this drives pushes below the wheel's span, which must go to the
// heap rather than alias a bucket or a far block.
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
					ev := &event{t: Time(st.Intn(200))*c.shape.mul + c.shape.frac, seq: uint64(i)}
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
// random same-and-distinct-time schedules fire strictly in (t, seq)
// order, identically across reruns.
func TestKernelScheduleOrderRandomized(t *testing.T) {
	run := func(seed uint64, n int) []int {
		st := rng.New(seed)
		k := NewKernel()
		at := make([]Time, n)
		var order []int
		fire := func(arg any) { order = append(order, arg.(int)) }
		for i := range at {
			at[i] = Time(st.Intn(16))
			k.ScheduleArg(at[i], fire, i)
		}
		if _, err := k.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(order); j++ {
			if a, b := order[j-1], order[j]; at[a] > at[b] || at[a] == at[b] && a > b {
				t.Fatalf("event %d (t=%g) fired before event %d (t=%g)", a, at[a], b, at[b])
			}
		}
		return order
	}
	err := quick.Check(func(seed uint64, sizeRaw uint8) bool {
		n := 1 + int(sizeRaw%200)
		a := run(seed, n)
		b := run(seed, n)
		if len(a) != n || len(b) != n {
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
