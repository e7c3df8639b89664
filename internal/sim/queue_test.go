package sim

// Tests of the three-tier queue inside the kernel: FuzzEventQueue lets the
// mutator hunt for a queue program on which the queue diverges from
// container/heap (heap_test.go holds the generated cases); a model split
// over partitions, one queue each as side-by-side kernels hold them,
// keeps every partition's share of the single heap's order; the
// empty-pop and interface contracts; and the tier each kernel workload
// rides — cycle waits on the near wheel, hops on the far tier — with
// their allocations pinned.

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// assigners is the partition-assignment corpus: by schedule order, by
// coarse time bucket (so whole partitions go quiet), hash-scattered,
// everything-in-one (degenerate), and out of range (wrapped back by
// partOf).
func assigners(parts int) map[string]func(*event) int {
	return map[string]func(*event) int{
		"by-seq":  func(ev *event) int { return int(ev.seq) % parts },
		"by-time": func(ev *event) int { return int(ev.t) % parts },
		"hashed": func(ev *event) int {
			sm := rng.SplitMix64{State: ev.seq*2654435761 + uint64(ev.t)}
			return int(sm.Next() % uint64(parts))
		},
		"constant":     func(ev *event) int { return 0 },
		"out-of-range": func(ev *event) int { return int(ev.seq)%parts + parts },
	}
}

// partOf is ev's partition under assign, wrapped into [0, parts).
func partOf(assign func(*event) int, ev *event, parts int) int {
	return assign(ev) % parts
}

// TestPartitionedQueueMatchesSingleHeap: one randomized schedule split
// over per-partition queues, for several partition counts and
// assignments, pops on every partition the single heap's order
// restricted to it: draining the single heap, each event it yields is
// the front of its partition's queue.
func TestPartitionedQueueMatchesSingleHeap(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 5, 8} {
		for name, assign := range assigners(parts) {
			t.Run(fmt.Sprintf("p%d/%s", parts, name), func(t *testing.T) {
				for _, shape := range queueShapes {
					t.Run(shape.name, func(t *testing.T) {
						err := quick.Check(func(seed uint64, sizeRaw uint16) bool {
							ts := mixedTimes(rng.New(seed), 1+int(sizeRaw%400), shape)
							var ref eventHeap
							qs := make([]wheelQueue, parts)
							for i, at := range ts {
								ev := &event{t: at, seq: uint64(i)}
								ref.push(ev)
								qs[partOf(assign, ev, parts)].push(ev)
							}
							held := 0
							for i := range qs {
								held += qs[i].size()
							}
							if held != ref.size() {
								return false
							}
							for ref.size() > 0 {
								want := ref.pop()
								q := &qs[partOf(assign, want, parts)]
								if q.peek() != want || q.pop() != want {
									return false
								}
							}
							for i := range qs {
								if qs[i].size() != 0 || qs[i].peek() != nil {
									return false
								}
							}
							return true
						}, &quick.Config{MaxCount: 60})
						if err != nil {
							t.Error(err)
						}
					})
				}
			})
		}
	}
}

// TestPartitionedQueueInterleaved: a queue program — pushes, pops and
// Run jumps, the dispatch loop's shape — split over four
// partitions by each assignment of the corpus runs on every partition's
// queue against container/heap, and the partitions together exercise
// the tiers each shape exists for. An operation's index stands in for
// its seq and its opcode for its time, so by-time gives each partition
// its own mix of operations.
func TestPartitionedQueueInterleaved(t *testing.T) {
	const parts = 4
	for name, assign := range assigners(parts) {
		t.Run(name, func(t *testing.T) {
			for _, shape := range queueShapes {
				t.Run(shape.name, func(t *testing.T) {
					var total queueStats
					err := quick.Check(func(seed uint64, opsRaw uint16) bool {
						prog := randomProgram(rng.New(seed), 10+int(opsRaw%1500))
						subs := make([][]byte, parts)
						for i, b := range prog {
							p := partOf(assign, &event{t: Time(b), seq: uint64(i)}, parts)
							subs[p] = append(subs[p], b)
						}
						for p, sub := range subs {
							st, err := runQueueProgram(&wheelQueue{}, sub, shape)
							if err != nil {
								t.Logf("partition %d: %v", p, err)
								return false
							}
							total.add(st)
						}
						return true
					}, &quick.Config{MaxCount: 40})
					if err != nil {
						t.Fatal(err)
					}
					checkTiers(t, shape.name, total)
				})
			}
		})
	}
}

// TestPartitionedQueueSizeMatchesShards: each of several kernels run
// side by side ("shards") reports as pending exactly the events its
// model has scheduled and not yet seen fire, with every tier of the
// queues populated, at setup and between Run windows. Hops start at
// half cycles and re-schedule themselves 70 cycles ahead, so they
// stream through the heap; each also schedules a ping 5.5 cycles ahead,
// at a whole cycle on the near wheel, beside a setup event at an
// integral time; one setup event per shard lies some 900 cycles ahead,
// on the far tier; and each shard's decreasing half-cycle times join
// the hops on the heap.
func TestPartitionedQueueSizeMatchesShards(t *testing.T) {
	const parts = 3
	type shard struct {
		k   *Kernel
		out int // events scheduled and not yet fired
	}
	sched := func(s *shard, d Time, fn func(any)) {
		s.out++
		s.k.ScheduleArg(d, fn, s)
	}
	fired := func(arg any) { arg.(*shard).out-- }
	var hops func(any)
	hops = func(arg any) {
		s := arg.(*shard)
		s.out--
		sched(s, 70, hops)
		sched(s, 5.5, fired)
	}
	shards := make([]*shard, parts)
	for i := range shards {
		s := &shard{k: NewKernel()}
		shards[i] = s
		for j := 0; j < 24; j++ {
			sched(s, Time(64+3*j)+0.5, hops)
		}
		for j := 0; j < 8; j++ {
			sched(s, Time(120-j)+0.5, fired)
		}
		sched(s, Time(50-i), fired)
		sched(s, Time(1000+i), fired)
	}
	check := func(when string) {
		t.Helper()
		var onWheel, onFar, inHeap int
		for i, s := range shards {
			if got := s.k.PendingEvents(); got != s.out || got == 0 {
				t.Fatalf("%s: shard %d holds %d events, its model %d", when, i, got, s.out)
			}
			q := &s.k.events
			onWheel += wheelLen(q)
			onFar += farLen(q)
			inHeap += q.heap.size()
		}
		if onWheel == 0 {
			t.Fatalf("%s: no events on the wheel", when)
		}
		if onFar == 0 {
			t.Fatalf("%s: no events on the far tier", when)
		}
		if inHeap == 0 {
			t.Fatalf("%s: no events in the heap", when)
		}
	}
	check("setup")
	for _, until := range []Time{12, 40, 41.5, 100} {
		for _, s := range shards {
			if err := s.k.Run(until); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("after Run(%g)", until))
	}
}

// FuzzEventQueue runs arbitrary queue programs (see runQueueProgram for
// the opcodes) differentially against container/heap on the three-tier
// queue, with integral (wheel-shaped), stretched integral (far-shaped)
// and half-cycle (heap-shaped) stream and random delays.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0x50, 0x50, 0x51, 0xa7, 0x00, 0xd0, 0xe9, 0x00})
	f.Add([]byte{0x52, 0x53, 0xa3, 0xa3, 0xe8, 0x01, 0x50, 0xd4, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, prog []byte) {
		for _, shape := range queueShapes {
			if _, err := runQueueProgram(&wheelQueue{}, prog, shape); err != nil {
				t.Fatalf("%s: %v", shape.name, err)
			}
		}
	})
}

// TestEventQueueEmptyPopContract pins the empty-queue contract across
// every implementation: pop and peek on an empty queue return nil, and
// draining to empty then popping again behaves the same way, with the
// size and the front intact afterwards.
func TestEventQueueEmptyPopContract(t *testing.T) {
	for _, c := range queueCases() {
		t.Run(c.name, func(t *testing.T) {
			q := c.mk()
			if got := q.pop(); got != nil {
				t.Fatalf("pop on empty = %v, want nil", got)
			}
			if got := q.peek(); got != nil {
				t.Fatalf("peek on empty = %v, want nil", got)
			}
			// Fill, drain to empty, pop once more: still nil, not a panic,
			// and the queue stays usable.
			for i := 0; i < 7; i++ {
				q.push(&event{t: Time(i%3) + c.shape.frac, seq: uint64(i)})
			}
			for q.size() > 0 {
				if q.pop() == nil {
					t.Fatal("pop returned nil with events queued")
				}
			}
			if got := q.pop(); got != nil {
				t.Fatalf("pop after drain = %v, want nil", got)
			}
			if q.size() != 0 {
				t.Fatalf("size after empty pops = %d, want 0", q.size())
			}
			q.push(&event{t: 1 + c.shape.frac, seq: 99})
			if ev := q.pop(); ev == nil || ev.seq != 99 {
				t.Fatalf("queue unusable after empty pops: got %v", ev)
			}
		})
	}
}

// TestEventQueueInterfaceConformance drives every implementation through
// the eventQueue interface itself, so the interface's contract — not
// just the concrete methods — is what the ordering proof covers.
func TestEventQueueInterfaceConformance(t *testing.T) {
	drain := func(q eventQueue, n int, seed uint64) []uint64 {
		st := rng.New(seed)
		for i := 0; i < n; i++ {
			q.push(&event{t: Time(st.Intn(12)), seq: uint64(i)})
		}
		var order []uint64
		for q.size() > 0 {
			p := q.peek()
			ev := q.pop()
			if p != ev {
				t.Fatal("peek disagrees with pop")
			}
			order = append(order, ev.seq)
		}
		return order
	}
	const n, seed = 300, 99
	single := drain(&eventHeap{}, n, seed)
	got := drain(&wheelQueue{}, n, seed)
	if len(single) != n || len(got) != n {
		t.Fatalf("drained %d and %d of %d", len(single), len(got), n)
	}
	for i := range single {
		if single[i] != got[i] {
			t.Fatalf("pop %d: single heap seq %d, three-tier queue seq %d", i, single[i], got[i])
		}
	}
}

// TestKernelCycleWaitsRideTheWheel: a kernel whose callbacks re-arm
// themselves whole cycles a few at a time keeps every pending event on
// the cycle wheel: the heap stays empty.
func TestKernelCycleWaitsRideTheWheel(t *testing.T) {
	k := NewKernel()
	var rearm func(any)
	rearm = func(d any) { k.ScheduleArg(d.(Time), rearm, d) }
	for i := 0; i < 50; i++ {
		k.ScheduleArg(0, rearm, Time(1+i%9))
	}
	for _, until := range []Time{0, 3, 40, 41, 500, 502} {
		if err := k.Run(until); err != nil {
			t.Fatal(err)
		}
		q := &k.events
		if on := wheelLen(q); on != 50 || q.heap.size() != 0 {
			t.Fatalf("after Run(%g): wheel %d, heap %d; want all 50 on the wheel",
				until, on, q.heap.size())
		}
	}
}

// hopStream is the event shape of the parcel test system at scale: each
// node is a FIFO server, and every event is a parcel landing on one. The landing books the node's next busy period of 1-70 cycles and
// sends the parcel on to a random node, landing when the period ends
// plus a 500-cycle latency: events 500-2000 cycles ahead, out of push
// order, all at whole cycles.
type hopStream struct {
	q    *wheelQueue
	st   *rng.Stream
	free []Time
	seq  uint64
}

func newHopStream(q *wheelQueue, nodes, parcels int) *hopStream {
	h := &hopStream{q: q, st: rng.New(20), free: make([]Time, nodes)}
	for i := 0; i < nodes*parcels; i++ {
		h.land(&event{arg: i % nodes}, 0)
	}
	return h
}

// land books ev's parcel on its node at time now and pushes its next
// landing.
func (h *hopStream) land(ev *event, now Time) {
	n := ev.arg.(int)
	start := max(now, h.free[n])
	h.free[n] = start + Time(1+h.st.Intn(70))
	ev.t, ev.seq, ev.arg = h.free[n]+500, h.seq, h.st.Intn(len(h.free))
	h.seq++
	h.q.push(ev)
}

// step pops the next landing and lands it, returning the tier it came
// from.
func (h *hopStream) step() int {
	tier := nextTier(h.q)
	ev := h.q.pop()
	h.land(ev, ev.t)
	return tier
}

// TestFarTierCarriesHopStream: on the parcel system's hop stream the
// two-level wheel serves nearly every pop — the hops land past the near
// span, on the far tier, and reach the near wheel by cascading — and
// the heap takes under 5% of them.
func TestFarTierCarriesHopStream(t *testing.T) {
	h := newHopStream(&wheelQueue{}, 1024, 8)
	var tiers [numTiers]int
	const pops = 100000
	for i := 0; i < pops; i++ {
		tiers[h.step()]++
	}
	t.Logf("pops by tier (heap, wheel): %v", tiers)
	if share := float64(tiers[tierHeap]) / pops; share >= 0.05 {
		t.Errorf("heap served %.1f%% of the hop stream's pops, want under 5%%: %v", 100*share, tiers)
	}
	if tiers[tierWheel] < pops/2 {
		t.Errorf("wheel served %d of %d pops", tiers[tierWheel], pops)
	}
}

// TestFarTierAllocsPinned: steady-state far pushes, cascades and pops
// are allocation-free once both wheel tiers exist.
func TestFarTierAllocsPinned(t *testing.T) {
	q := &wheelQueue{}
	h := newHopStream(q, 64, 4)
	for i := 0; i < 4096; i++ {
		h.step()
	}
	far := q.far.n
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 256; i++ {
			h.step()
		}
	})
	if far == 0 || q.heap.size() != 0 {
		t.Fatalf("far tier holds %d events, heap %d: the stream is not far-shaped", far, q.heap.size())
	}
	if allocs != 0 {
		t.Errorf("steady-state far push/cascade/pop allocates %.1f objects per 256 hops, want 0", allocs)
	}
}
