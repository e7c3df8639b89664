package sim_test

// BenchmarkKernelSchedule delegates to internal/benches, the single
// source of the workloads that cmd/pimbench records into BENCH_<n>.json —
// tuning a driver there changes both measurements together, so the
// trajectory stays comparable. BenchmarkKernelDeliveries and
// BenchmarkKernelCycleWaits are test-only: they profile the event
// queue's heap and cycle-wheel tiers without changing the pimbench
// suite. (The activity switch, BenchmarkKernelActivityChain, is measured
// with the activity layer in internal/sim/simtest.)

import (
	"testing"

	"repro/internal/benches"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

func BenchmarkKernelSchedule(b *testing.B) { benches.KernelSchedule(b) }

// holdModel is a hold model of message traffic: in-flight messages each
// delivered after a constant latency and re-sent on arrival — already
// sorted arrivals, most at non-integral times, so they ride the heap —
// beside waiters re-arming themselves after short whole-cycle delays on
// the near wheel.
type holdModel struct {
	k       *sim.Kernel
	latency sim.Time
	deliver func(any)
	n       int // deliveries so far
}

func newHoldModel(msgs, waiters int, latency sim.Time) *holdModel {
	m := &holdModel{k: sim.NewKernel(), latency: latency}
	m.deliver = func(arg any) {
		m.n++
		m.k.ScheduleArg(m.latency, m.deliver, arg)
	}
	for i := 0; i < msgs; i++ {
		// Spread the first arrivals over one latency so deliveries are
		// steady rather than one burst.
		m.k.ScheduleArg(latency*sim.Time(i)/sim.Time(msgs), m.deliver, m)
	}
	for i := 0; i < waiters; i++ {
		m.k.ScheduleArg(0, shortWait, &shortWaiter{k: m.k, d: 1 + sim.Time(i%3)})
	}
	return m
}

// shortWaiter re-arms itself after d, 2d, 3d, d, ... cycles forever.
type shortWaiter struct {
	k *sim.Kernel
	d sim.Time
	i int
}

func shortWait(arg any) {
	w := arg.(*shortWaiter)
	w.i++
	w.k.ScheduleArg(w.d*sim.Time(1+w.i%3), shortWait, w)
}

// BenchmarkKernelDeliveries: ~8 K in-flight constant-delay deliveries
// plus 64 short waiters; one op is one dispatched delivery.
func BenchmarkKernelDeliveries(b *testing.B) {
	const msgs, latency = 8192, 500
	m := newHoldModel(msgs, 64, latency)
	next := sim.Time(latency)
	if err := m.k.Run(next); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := m.n
	for m.n-start < b.N {
		next += latency / 8
		if err := m.k.Run(next); err != nil {
			b.Fatal(err)
		}
	}
}

// cycleModel is whole-cycle traffic, the shape of the HWP-cycle models:
// self-rescheduling ScheduleArg callbacks waiting a few cycles at a time
// — op counts, memory and parcel overheads — the waiters starting at 0,
// the ticks staggered over 8 cycles. Every event lands a few cycles
// ahead, the cycle wheel's path.
type cycleModel struct {
	k    *sim.Kernel
	tick func(any)
	n    int // events dispatched so far
}

func newCycleModel(waiters, ticks int) *cycleModel {
	m := &cycleModel{k: sim.NewKernel()}
	m.tick = func(arg any) {
		m.n++
		c := arg.(*cycleWaiter)
		c.i++
		m.k.ScheduleArg(c.delay(), m.tick, c)
	}
	for i := 0; i < waiters; i++ {
		m.k.ScheduleArg(0, m.tick, &cycleWaiter{i: i})
	}
	for i := 0; i < ticks; i++ {
		m.k.ScheduleArg(sim.Time(i%8), m.tick, &cycleWaiter{i: i})
	}
	return m
}

// cycleWaiter waits 1-10 cycles at a time, in a pattern that differs
// from step to step and waiter to waiter.
type cycleWaiter struct {
	i int
}

func (w *cycleWaiter) delay() sim.Time { return sim.Time(1 + (w.i*7)%10) }

// BenchmarkKernelCycleWaits: 1024 waiters re-arming themselves after
// small integral delays; one op is one dispatched event.
func BenchmarkKernelCycleWaits(b *testing.B) {
	m := newCycleModel(1024, 0)
	next := sim.Time(64)
	if err := m.k.Run(next); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := m.n
	for m.n-start < b.N {
		next += 4
		if err := m.k.Run(next); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Allocation regression guards -------------------------------------
//
// These pin the post-overhaul allocation counts of the kernel's hot
// paths. If a change re-introduces a per-event allocation (boxing in the
// event queue, a closure on the resume path), the corresponding test
// fails rather than silently regressing every model.

// TestScheduleAllocsPinned: steady-state scheduling of a prebuilt
// closure (the schedule helper) + drain is allocation-free: the free
// list recycles events, and a func value travels as the argument
// without boxing.
func TestScheduleAllocsPinned(t *testing.T) {
	k := sim.NewKernel()
	fn := func() {}
	// Prime the free list and the queue's capacity.
	for j := 0; j < 512; j++ {
		schedule(k, sim.Time(j), fn)
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 512; j++ {
			schedule(k, sim.Time(j), fn)
		}
		if _, err := k.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+drain allocates %.1f objects per 512-event batch, want 0", allocs)
	}
}

// waitLoop is an endless 1-cycle wait loop.
type waitLoop struct{}

func (waitLoop) Step(a *simtest.ActCtx) { a.Wait(1) }

// TestWaitWakeupAllocsPinned: two activities alternating Wait and wakeup
// at the same timestamps (simtest's BenchmarkKernelActivityChain
// workload) are allocation-free: a resumption is one recycled event.
func TestWaitWakeupAllocsPinned(t *testing.T) {
	k := sim.NewKernel()
	env := simtest.New(k)
	env.Spawn("a0", waitLoop{})
	env.Spawn("a1", waitLoop{})
	t.Cleanup(func() { _ = env.Run(k.Now()) })
	// Prime: the first window grows the queue and the free list.
	next := sim.Time(256)
	if err := k.Run(next); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		next += 256
		if err := k.Run(next); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Wait/wakeup allocates %.1f objects per 256-wait window, want 0", allocs)
	}
}

// TestScheduleArgAllocsPinned: steady-state constant-delay ScheduleArg
// deliveries — in-flight messages re-sent on arrival — are
// allocation-free once the queue and the free list have grown.
func TestScheduleArgAllocsPinned(t *testing.T) {
	const latency = 64
	m := newHoldModel(256, 0, latency)
	next := sim.Time(2 * latency)
	if err := m.k.Run(next); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		next += latency
		if err := m.k.Run(next); err != nil {
			t.Fatal(err)
		}
	})
	if m.n < 100*256 {
		t.Fatalf("only %d deliveries ran", m.n)
	}
	if allocs != 0 {
		t.Errorf("steady-state ScheduleArg deliveries allocate %.1f objects per 256-delivery window, want 0", allocs)
	}
}

// TestCycleWaitAllocsPinned: steady-state whole-cycle Waits and
// small-integral ScheduleArg callbacks — the event queue's cycle-wheel
// path — are allocation-free once the free list has grown.
func TestCycleWaitAllocsPinned(t *testing.T) {
	m := newCycleModel(256, 64)
	next := sim.Time(128)
	if err := m.k.Run(next); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		next += 64
		if err := m.k.Run(next); err != nil {
			t.Fatal(err)
		}
	})
	// 320 sources, each firing at least once per 10 cycles.
	if m.n < 100*320*64/10 {
		t.Fatalf("only %d events ran", m.n)
	}
	if allocs != 0 {
		t.Errorf("steady-state cycle waits allocate %.1f objects per 64-cycle window, want 0", allocs)
	}
}
