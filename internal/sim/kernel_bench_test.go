package sim_test

// The kernel micro-benchmarks delegate to internal/benches, the single
// source of the workloads that cmd/pimbench records into BENCH_<n>.json —
// tuning a driver there changes both measurements together, so the
// trajectory stays comparable.

import (
	"testing"

	"repro/internal/benches"
	"repro/internal/sim"
)

func BenchmarkKernelSchedule(b *testing.B)      { benches.KernelSchedule(b) }
func BenchmarkKernelActivityChain(b *testing.B) { benches.KernelActivityChain(b) }

// BenchmarkTimerCancel measures the cancel-and-collect path: schedule,
// cancel, and let the dead event be swept on the next drain.
func BenchmarkTimerCancel(b *testing.B) {
	k := sim.NewKernel()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 256
	for done := 0; done < b.N; done += batch {
		for j := 0; j < batch; j++ {
			tm := k.Schedule(sim.Time(j), fn)
			if !tm.Cancel() {
				b.Fatal("cancel failed")
			}
		}
		if _, err := k.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Allocation regression guards -------------------------------------
//
// These pin the post-overhaul allocation counts of the kernel's hot
// paths. If a change re-introduces a per-event allocation (boxing in the
// event queue, a heap-escaping Timer, a closure on the resume path), the
// corresponding test fails rather than silently regressing every model.

// TestScheduleAllocsPinned: steady-state Schedule + drain is
// allocation-free (the free list recycles events; Timer is a value).
func TestScheduleAllocsPinned(t *testing.T) {
	k := sim.NewKernel()
	fn := func() {}
	// Prime the free list and the queue's capacity.
	for j := 0; j < 512; j++ {
		k.Schedule(sim.Time(j), fn)
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 512; j++ {
			k.Schedule(sim.Time(j), fn)
		}
		if _, err := k.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule+drain allocates %.1f objects per 512-event batch, want 0", allocs)
	}
}

// waitLoop is an endless 1-cycle wait loop.
type waitLoop struct{}

func (waitLoop) Step(a *sim.ActCtx) { a.Wait(1) }

// TestWaitWakeupAllocsPinned: two activities alternating Wait and wakeup
// at the same timestamps (the kernel_activity_chain workload) are
// allocation-free.
func TestWaitWakeupAllocsPinned(t *testing.T) {
	k := sim.NewKernel()
	k.SpawnActivity("a0", waitLoop{})
	k.SpawnActivity("a1", waitLoop{})
	t.Cleanup(func() { _ = k.Run(k.Now()) })
	// Prime: the first window grows the queue and the free list.
	next := sim.Time(256)
	if err := k.Advance(next); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		next += 256
		if err := k.Advance(next); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Wait/wakeup allocates %.1f objects per 256-wait window, want 0", allocs)
	}
}

// TestTimerCancelAllocsPinned: Cancel plus dead-event collection is
// allocation-free.
func TestTimerCancelAllocsPinned(t *testing.T) {
	k := sim.NewKernel()
	fn := func() {}
	for j := 0; j < 256; j++ {
		k.Schedule(sim.Time(j), fn)
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 256; j++ {
			tm := k.Schedule(sim.Time(j), fn)
			if !tm.Cancel() {
				t.Fatal("cancel failed")
			}
		}
		if _, err := k.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Schedule+Cancel+collect allocates %.1f objects per 256-timer batch, want 0", allocs)
	}
}
