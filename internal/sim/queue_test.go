package sim

// Property tests of the partitioned event queue against the single
// 4-ary heap and container/heap: for arbitrary randomized schedules —
// integral-cycle and constant-delay runs, wheel fallbacks, duplicate
// timestamps, interleaved pushes, pops, cancels and Advance jumps — and
// for every partition count and assignment function tried, the
// partitioned queue (one four-tier laneQueue per partition) must pop
// the identical event sequence. Together with heap_test.go (single heap
// == laneQueue == container/heap) this chains the partitioned queue all
// the way to the original reference ordering, so the partitioned kernel
// preserves byte-identical trajectories by construction. FuzzEventQueue
// lets the mutator hunt for a queue program on which any of them
// diverges.

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// assigners is the partition-assignment corpus: by schedule order, by
// coarse time bucket (so whole partitions go quiet and the merge front
// skips them), hash-scattered, everything-in-one (degenerate), and
// out-of-range (exercises the fold-to-zero clamp).
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

// TestPartitionedQueueMatchesSingleHeap: pushing one randomized schedule
// into the single heap and into partitioned queues of several widths and
// assignments, then draining, yields the identical pop sequence.
func TestPartitionedQueueMatchesSingleHeap(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 5, 8} {
		for name, assign := range assigners(parts) {
			t.Run(fmt.Sprintf("p%d/%s", parts, name), func(t *testing.T) {
				for _, shape := range queueShapes {
					t.Run(shape.name, func(t *testing.T) {
						err := quick.Check(func(seed uint64, sizeRaw uint16) bool {
							ts := mixedTimes(rng.New(seed), 1+int(sizeRaw%400), shape)
							n := len(ts)
							var ref eventHeap
							pq := newPartitionedQueue(parts, assign)
							for i, at := range ts {
								ev := &event{t: at, seq: uint64(i)}
								ref.push(ev)
								pq.push(ev)
							}
							if pq.size() != ref.size() {
								return false
							}
							for i := 0; i < n; i++ {
								if pq.peek() != ref.peek() {
									return false
								}
								if pq.pop() != ref.pop() {
									return false
								}
							}
							return pq.size() == 0 && pq.peek() == nil
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

// TestPartitionedQueueInterleaved: arbitrary interleavings of pushes,
// pops, cancels and Advance jumps — the dispatch loop's shape, where
// firing events schedule new ones — agree with container/heap at every
// step, and exercise the tiers each shape exists for.
func TestPartitionedQueueInterleaved(t *testing.T) {
	const parts = 4
	for name, assign := range assigners(parts) {
		t.Run(name, func(t *testing.T) {
			for _, shape := range queueShapes {
				t.Run(shape.name, func(t *testing.T) {
					var total queueStats
					err := quick.Check(func(seed uint64, opsRaw uint16) bool {
						prog := randomProgram(rng.New(seed), 10+int(opsRaw%1500))
						st, err := runQueueProgram(newPartitionedQueue(parts, assign), prog, shape)
						if err != nil {
							t.Log(err)
							return false
						}
						total.add(st)
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

// FuzzEventQueue runs arbitrary queue programs (see runQueueProgram for
// the opcodes) differentially against container/heap, on the four-tier
// queue and on a partitioned queue of 1-4 partitions, with integral
// (wheel-shaped), stretched integral (far-shaped) and half-cycle
// (lane-shaped) stream and random delays.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0x50, 0x50, 0x51, 0xa7, 0x00, 0xd0, 0xe9, 0x00}, uint8(0))
	f.Add([]byte{0x52, 0x53, 0xa3, 0xa3, 0xe8, 0x01, 0x50, 0xd4, 0x02, 0x03}, uint8(3))
	f.Fuzz(func(t *testing.T, prog []byte, partsRaw uint8) {
		parts := 1 + int(partsRaw%4)
		for _, shape := range queueShapes {
			if _, err := runQueueProgram(&laneQueue{}, prog, shape); err != nil {
				t.Fatalf("%s: %v", shape.name, err)
			}
			pq := newPartitionedQueue(parts, func(ev *event) int { return int(ev.seq*2654435761>>7) % parts })
			if _, err := runQueueProgram(pq, prog, shape); err != nil {
				t.Fatalf("%s/partitioned/%d: %v", shape.name, parts, err)
			}
		}
	})
}

// TestEventQueueEmptyPopContract pins the empty-queue contract across
// every implementation: pop and peek on an empty queue return nil — the
// partitioned queue used to forward its front() == -1 sentinel straight
// into a slice index, turning "empty" into an opaque bounds panic — and
// draining to empty then popping again behaves the same way, with the
// size and the merge front intact afterwards.
func TestEventQueueEmptyPopContract(t *testing.T) {
	impls := append(queueCases(), queueCase{"partitioned", func() eventQueue {
		return newPartitionedQueue(3, func(ev *event) int { return int(ev.seq) % 3 })
	}, queueShape{"partitioned", 0, 1}})
	for _, c := range impls {
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
	for name, q := range map[string]eventQueue{
		"lanes":       &laneQueue{},
		"partitioned": newPartitionedQueue(3, func(ev *event) int { return int(ev.seq) % 3 }),
	} {
		got := drain(q, n, seed)
		if len(single) != n || len(got) != n {
			t.Fatalf("%s: drained %d and %d of %d", name, len(single), len(got), n)
		}
		for i := range single {
			if single[i] != got[i] {
				t.Fatalf("%s: pop %d: single heap seq %d, got seq %d", name, i, single[i], got[i])
			}
		}
	}
}

// TestPartitionedQueueSizeMatchesShards: a ParKernel's shards push into
// their partitions directly, never through partitionedQueue.push, so the
// queue's size must come from the partitions themselves — it equals the
// sum of the shards' PendingEvents with every tier populated, at setup
// and between windows. Hops start at half cycles and re-send
// themselves 70 cycles ahead, so they stream through one lane; their
// cross-shard Sends land 5.5 cycles ahead, at whole cycles on the near
// wheel, beside a few setup events at integral times; one setup event
// per shard lies some 900 cycles ahead, on the far tier; and each
// shard's decreasing half-cycle times fit behind no lane tail, so they
// fill the other lanes and spill onto the heap.
func TestPartitionedQueueSizeMatchesShards(t *testing.T) {
	const parts = 3
	pk := NewParKernel(parts, 2, 5)
	defer pk.Close()
	var hops func(any)
	hops = func(arg any) {
		k := arg.(*Kernel)
		k.ScheduleArg(70, hops, k)
		k.Send((k.Partition()+1)%parts, 5.5, func(any) {}, nil)
	}
	for i := 0; i < parts; i++ {
		k := pk.Part(i)
		for j := 0; j < 24; j++ {
			k.ScheduleArg(Time(64+3*j)+0.5, hops, k)
		}
		for j := 0; j < 8; j++ {
			k.Schedule(Time(120-j)+0.5, func() {})
		}
		k.Schedule(Time(50-i), func() {})
		k.Schedule(Time(1000+i), func() {})
	}
	check := func(when string) {
		t.Helper()
		var sum, inLanes, onWheel, onFar, inHeap int
		for i := 0; i < parts; i++ {
			sum += pk.Part(i).PendingEvents()
			q := &pk.pq.parts[i]
			for _, l := range q.lanes {
				inLanes += l.n
			}
			onWheel += wheelLen(q)
			onFar += farLen(q)
			inHeap += q.heap.size()
		}
		if got := pk.pq.size(); got != sum || sum == 0 {
			t.Fatalf("%s: partitioned size %d, shards hold %d", when, got, sum)
		}
		if inLanes == 0 {
			t.Fatalf("%s: no events in lanes", when)
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
		if err := pk.Advance(until); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after Advance(%g)", until))
	}
}

// TestKernelCycleWaitsRideTheWheel: a kernel whose callbacks re-arm
// themselves whole cycles a few at a time keeps every pending event on
// the cycle wheel: the heap and the lanes stay empty.
func TestKernelCycleWaitsRideTheWheel(t *testing.T) {
	k := NewKernel()
	var rearm func(any)
	rearm = func(d any) { k.ScheduleArg(d.(Time), rearm, d) }
	for i := 0; i < 50; i++ {
		k.ScheduleArg(0, rearm, Time(1+i%9))
	}
	for _, until := range []Time{0, 3, 40, 41, 500, 502} {
		if err := k.Advance(until); err != nil {
			t.Fatal(err)
		}
		q := k.events
		lanes := 0
		for _, l := range q.lanes {
			lanes += l.n
		}
		if on := wheelLen(q); on != 50 || lanes != 0 || q.heap.size() != 0 {
			t.Fatalf("after Advance(%g): wheel %d, lanes %d, heap %d; want all 50 on the wheel",
				until, on, lanes, q.heap.size())
		}
	}
}

// hopStream is the event shape of the parcel test system at scale: each
// node is a FIFO server, and every event is a parcel landing on one. The landing books the node's next busy period of 1-70 cycles and
// sends the parcel on to a random node, landing when the period ends
// plus a 500-cycle latency: events 500-2000 cycles ahead, out of push
// order, all at whole cycles.
type hopStream struct {
	q    *laneQueue
	st   *rng.Stream
	free []Time
	seq  uint64
}

func newHopStream(q *laneQueue, nodes, parcels int) *hopStream {
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
	h := newHopStream(&laneQueue{}, 1024, 8)
	var tiers [numTiers]int
	const pops = 100000
	for i := 0; i < pops; i++ {
		tiers[h.step()]++
	}
	t.Logf("pops by tier (heap, lane, wheel): %v", tiers)
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
	q := &laneQueue{}
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
