package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
)

// stage is one step of a scripted test activity. It is called again at
// every resumption until it reports done; the script then moves on to the
// next stage inline.
type stage func(a *ActCtx) (done bool)

// script is a test activity that runs its stages in order and exits after
// the last one, so straight-line test models read like the sequential
// code they describe.
type script []stage

func (s *script) Step(a *ActCtx) {
	for len(*s) > 0 {
		if !(*s)[0](a) {
			return
		}
		*s = (*s)[1:]
	}
	a.Exit()
}

// run builds a scripted activity from stages.
func run(stages ...stage) *script {
	s := script(stages)
	return &s
}

// once turns a call that may register or schedule a resumption into a
// stage: the first call reports f's answer, the call at the resumption
// reports done.
func once(f func(a *ActCtx) bool) stage {
	called := false
	return func(a *ActCtx) bool {
		if called {
			return true
		}
		called = true
		return f(a)
	}
}

// do runs f inline and moves on.
func do(f func(a *ActCtx)) stage {
	return func(a *ActCtx) bool { f(a); return true }
}

// wait waits d.
func wait(d Time) stage {
	return once(func(a *ActCtx) bool { a.Wait(d); return false })
}

// acquire takes n units of r at the given priority.
func acquire(r *Resource, n int, prio float64) stage {
	return once(func(a *ActCtx) bool { return r.AcquireAct(a, n, prio) })
}

// release returns n units of r.
func release(r *Resource, n int) stage {
	return do(func(*ActCtx) { r.Release(n) })
}

// hold acquires one unit of r, keeps it for d and releases it.
func hold(r *Resource, d Time) []stage {
	return []stage{acquire(r, 1, 0), wait(d), release(r, 1)}
}

// get takes one item from s and hands it to f (which may be nil).
func get[T any](s *Store[T], f func(a *ActCtx, v T)) stage {
	return func(a *ActCtx) bool {
		v, ok := s.GetAct(a)
		if ok && f != nil {
			f(a, v)
		}
		return ok
	}
}

// put adds v to s.
func put[T any](s *Store[T], v T) stage {
	return once(func(a *ActCtx) bool { return s.PutAct(a, v) })
}

// join waits for wg.
func join(wg *WaitGroup) stage {
	return once(func(a *ActCtx) bool { return wg.WaitAct(a) })
}

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(5, func() { order = append(order, 2) })
	k.Schedule(1, func() { order = append(order, 1) })
	k.Schedule(5, func() { order = append(order, 3) }) // same time: schedule order
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v, want %v", order, want)
		}
	}
	if k.Now() != 10 {
		t.Errorf("Now() = %g, want 10", k.Now())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(5, func() {})
	if err := k.Run(5); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.ScheduleAt(1, func() {})
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.Schedule(5, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("first Cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestProcessWait(t *testing.T) {
	k := NewKernel()
	var times []Time
	stamp := do(func(a *ActCtx) { times = append(times, a.Now()) })
	k.SpawnActivity("p", run(stamp, wait(3), stamp, wait(4), stamp))
	if err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 3, 7}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	k := NewKernel()
	var start Time = -1
	k.SpawnActivityAt(42, "late", run(do(func(a *ActCtx) { start = a.Now() })))
	if err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	if start != 42 {
		t.Errorf("activity started at %g, want 42", start)
	}
}

func TestRunKillsBlockedProcesses(t *testing.T) {
	// Run finishes every activity still live at the horizon: one waiting
	// on a timer and one registered in an empty store.
	k := NewKernel()
	reached := false
	k.SpawnActivity("sleeper", run(wait(1000), do(func(*ActCtx) { reached = true })))
	s := NewStore[int](k, "empty")
	k.SpawnActivity("getter", run(get(s, nil)))
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("finished activity continued past end of run")
	}
	if k.LiveActivities() != 0 {
		t.Fatalf("LiveActivities = %d after Run", k.LiveActivities())
	}
	// The leftover timer event must not step the finished activity.
	if _, err := k.RunUntilIdle(); err != nil || reached {
		t.Fatalf("leftover event after Run: err=%v reached=%v", err, reached)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.SpawnActivity("bad", run(wait(1), do(func(*ActCtx) { panic("model bug") })))
	err := k.Run(10)
	if err == nil {
		t.Fatal("expected error from panicking activity")
	}
}

func TestRunUntilIdle(t *testing.T) {
	k := NewKernel()
	var end Time
	k.SpawnActivity("p", run(wait(7), do(func(a *ActCtx) { end = a.Now() })))
	final, err := k.RunUntilIdle()
	if err != nil {
		t.Fatal(err)
	}
	if end != 7 || final != 7 {
		t.Errorf("end=%g final=%g, want 7", end, final)
	}
}

func TestRunUntilIdleDeadlock(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k, "never", 1)
	k.SpawnActivity("stuck", run(join(wg)))
	_, err := k.RunUntilIdle()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1, FIFO)
	var maxConc, conc int
	for i := 0; i < 5; i++ {
		k.SpawnActivity("worker", run(
			acquire(r, 1, 0),
			do(func(*ActCtx) {
				conc++
				if conc > maxConc {
					maxConc = conc
				}
			}),
			wait(2),
			do(func(*ActCtx) { conc-- }),
			release(r, 1),
		))
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if maxConc != 1 {
		t.Errorf("max concurrency %d on capacity-1 resource", maxConc)
	}
	if r.Grants() != 5 {
		t.Errorf("grants = %d, want 5", r.Grants())
	}
}

// grantOrder runs four one-unit requesters arriving at t = 0, 1, 2, 3
// against a capacity-1 resource of the given discipline, each holding it
// for 10, and returns the order in which they were granted.
func grantOrder(t *testing.T, d Discipline) []int {
	t.Helper()
	k := NewKernel()
	r := NewResource(k, "cpu", 1, d)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		k.SpawnActivityAt(Time(i), "w", run(
			acquire(r, 1, 0),
			do(func(*ActCtx) { order = append(order, i) }),
			wait(10),
			release(r, 1),
		))
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	return order
}

func TestResourceFIFOOrder(t *testing.T) {
	order := grantOrder(t, FIFO)
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO order violated: %v", order)
		}
	}
}

func TestResourceLIFOOrder(t *testing.T) {
	// First arrival (t=0) grabs the idle server; the rest queue and are
	// served newest-first: 0, 3, 2, 1.
	order := grantOrder(t, LIFO)
	want := []int{0, 3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LIFO order = %v, want %v", order, want)
		}
	}
}

func TestResourcePriorityOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1, Priority)
	var order []int
	prios := []float64{3, 1, 2}
	for i := 0; i < 3; i++ {
		i := i
		k.SpawnActivityAt(Time(i)+1, "w", run(
			acquire(r, 1, prios[i]),
			do(func(*ActCtx) { order = append(order, i) }),
			wait(10),
			release(r, 1),
		))
	}
	// A holder occupies the resource while the three contenders arrive.
	k.SpawnActivity("holder", run(hold(r, 5)...))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0} // priorities 1, 2, 3
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", order, want)
		}
	}
}

func TestResourceNUnitGrants(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "mem", 4, FIFO)
	var events []string
	note := func(e string) stage { return do(func(*ActCtx) { events = append(events, e) }) }
	k.SpawnActivity("big", run(acquire(r, 3, 0), note("big+"), wait(10), release(r, 3), note("big-")))
	// bigger must wait for all 4 units; small finds 1 unit free but must
	// not bypass the FIFO head.
	k.SpawnActivityAt(1, "bigger", run(acquire(r, 4, 0), note("bigger+"), release(r, 4)))
	k.SpawnActivityAt(2, "small", run(acquire(r, 1, 0), note("small+"), release(r, 1)))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []string{"big+", "big-", "bigger+", "small+"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1, FIFO)
	var got []bool
	k.SpawnActivity("p", run(do(func(*ActCtx) {
		got = append(got, r.TryAcquire(1)) // true
		got = append(got, r.TryAcquire(1)) // false: busy
		r.Release(1)
		got = append(got, r.TryAcquire(1)) // true again
		r.Release(1)
	})))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !got[0] || got[1] || !got[2] {
		t.Errorf("TryAcquire sequence = %v, want [true false true]", got)
	}
}

func TestResourceUtilization(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1, FIFO)
	k.SpawnActivity("p", run(hold(r, 30)...))
	if err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	if u := r.Utilization(k.Now()); math.Abs(u-0.3) > 1e-12 {
		t.Errorf("utilization = %g, want 0.3", u)
	}
}

func TestStoreFIFO(t *testing.T) {
	k := NewKernel()
	s := NewStore[int](k, "box")
	var got []int
	take := get(s, func(_ *ActCtx, v int) { got = append(got, v) })
	k.SpawnActivity("consumer", run(take, take, take))
	k.SpawnActivity("producer", run(wait(1), put(s, 1), wait(1), put(s, 2), wait(1), put(s, 3)))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("got %v", got)
		}
	}
}

func TestStoreGetBlocksUntilPut(t *testing.T) {
	k := NewKernel()
	s := NewStore[string](k, "box")
	var when Time
	k.SpawnActivity("consumer", run(get(s, func(a *ActCtx, _ string) { when = a.Now() })))
	k.SpawnActivityAt(9, "producer", run(put(s, "x")))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if when != 9 {
		t.Errorf("Get unblocked at %g, want 9", when)
	}
}

func TestBoundedStorePutBlocks(t *testing.T) {
	k := NewKernel()
	s := NewBoundedStore[int](k, "box", 2)
	var putDone Time = -1
	k.SpawnActivity("producer", run(
		put(s, 1),
		put(s, 2),
		put(s, 3), // waits until a get makes room
		do(func(a *ActCtx) { putDone = a.Now() }),
	))
	k.SpawnActivityAt(5, "consumer", run(get(s, nil)))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if putDone != 5 {
		t.Errorf("third put completed at %g, want 5", putDone)
	}
	if s.Size() != 2 {
		t.Errorf("store size = %d, want 2", s.Size())
	}
}

func TestTryPutTryGet(t *testing.T) {
	k := NewKernel()
	s := NewBoundedStore[int](k, "box", 1)
	k.SpawnActivity("p", run(do(func(*ActCtx) {
		if !s.TryPut(7) {
			t.Error("TryPut into empty bounded store failed")
		}
		if s.TryPut(8) {
			t.Error("TryPut into full store succeeded")
		}
		v, ok := s.TryGet()
		if !ok || v != 7 {
			t.Errorf("TryGet = (%d, %v), want (7, true)", v, ok)
		}
		if _, ok := s.TryGet(); ok {
			t.Error("TryGet from empty store succeeded")
		}
	})))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k, "go")
	var woke []Time
	for i := 0; i < 3; i++ {
		k.SpawnActivity("waiter", run(
			once(sig.WaitAct),
			do(func(a *ActCtx) { woke = append(woke, a.Now()) }),
		))
	}
	k.Schedule(4, sig.Trigger)
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 4 {
			t.Errorf("waiter woke at %g, want 4", w)
		}
	}
	// A wait after the trigger returns immediately.
	k2 := NewKernel()
	sig2 := NewSignal(k2, "done")
	sig2.Trigger()
	var at Time = -1
	k2.SpawnActivity("late", run(once(sig2.WaitAct), do(func(a *ActCtx) { at = a.Now() })))
	if _, err := k2.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Errorf("late waiter returned at %g, want 0", at)
	}
}

func TestWaitGroupJoin(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k, "join", 3)
	var joined Time = -1
	for i := 1; i <= 3; i++ {
		k.SpawnActivity("w", run(wait(Time(i*10)), do(func(*ActCtx) { wg.Done() })))
	}
	k.SpawnActivity("joiner", run(join(wg), do(func(a *ActCtx) { joined = a.Now() })))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if joined != 30 {
		t.Errorf("join completed at %g, want 30", joined)
	}
}

// sleep sleeps d and records, at the resumption, the time and whether it
// was interrupted.
func sleep(d Time, when *Time, interrupted *bool) []stage {
	return []stage{
		once(func(a *ActCtx) bool { a.Sleep(d); return false }),
		do(func(a *ActCtx) { *when, *interrupted = a.Now(), a.Interrupted() }),
	}
}

func TestSleepInterrupt(t *testing.T) {
	k := NewKernel()
	var when Time
	var interrupted bool
	p := k.SpawnActivity("sleeper", run(sleep(100, &when, &interrupted)...))
	k.SpawnActivityAt(5, "waker", run(do(func(a *ActCtx) {
		if !a.Kernel().InterruptActivity(p) {
			t.Error("interrupt reported no delivery")
		}
	})))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !interrupted {
		t.Error("Sleep resumed without the interrupted flag")
	}
	if when != 5 {
		t.Errorf("interrupted at %g, want 5", when)
	}
}

func TestSleepUninterrupted(t *testing.T) {
	k := NewKernel()
	var when Time
	interrupted := true
	k.SpawnActivity("sleeper", run(sleep(4, &when, &interrupted)...))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if interrupted || when != 4 {
		t.Errorf("Sleep resumed at %g interrupted=%v, want 4 false", when, interrupted)
	}
}

func TestInterruptNonBlockedIsNoop(t *testing.T) {
	k := NewKernel()
	p := k.SpawnActivity("runner", run(wait(10)))
	delivered := true
	k.SpawnActivityAt(1, "waker", run(do(func(a *ActCtx) {
		delivered = a.Kernel().InterruptActivity(p) // p is in Wait, not Sleep
	})))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("interrupt of an uninterruptible Wait reported delivery")
	}
}

func TestDeterminism(t *testing.T) {
	run1 := func(seed uint64) []float64 {
		k := NewKernel()
		r := NewResource(k, "cpu", 2, FIFO)
		st := rng.New(seed)
		var finish []float64
		for i := 0; i < 50; i++ {
			// Durations are drawn when the activity reaches them, so the
			// shared stream is consumed in event order.
			draw := func(mean float64) stage {
				return once(func(a *ActCtx) bool { a.Wait(st.Exp(mean)); return false })
			}
			k.SpawnActivity("job", run(
				draw(3),
				acquire(r, 1, 0),
				draw(5),
				release(r, 1),
				do(func(a *ActCtx) { finish = append(finish, a.Now()) }),
			))
		}
		if _, err := k.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return finish
	}
	a, b := run1(12345), run1(12345)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectory diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
	c := run1(54321)
	same := true
	for i := range a {
		if i >= len(c) || a[i] != c[i] {
			same = false
			break
		}
	}
	if same && len(a) == len(c) {
		t.Error("different seeds produced identical trajectories")
	}
}

func TestYieldRunsSameTimeEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	note := func(e string) stage { return do(func(*ActCtx) { order = append(order, e) }) }
	yield := once(func(a *ActCtx) bool { a.Yield(); return false })
	k.SpawnActivity("a", run(note("a1"), yield, note("a2")))
	k.SpawnActivity("b", run(note("b1")))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestStopEndsRun(t *testing.T) {
	k := NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count == 5 {
			k.Stop()
			return
		}
		k.Schedule(1, tick)
	}
	k.Schedule(1, tick)
	if err := k.Run(1000); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if k.Now() != 5 {
		t.Errorf("Now = %g, want 5", k.Now())
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	k := NewKernel()
	k.SpawnActivity("bad", run(wait(-1)))
	if err := k.Run(1); err == nil {
		t.Fatal("expected error from negative Wait")
	}
}

func TestResourceQueueStats(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1, FIFO)
	// Two jobs: first holds [0,10], second arrives at 0 and waits 10.
	k.SpawnActivity("first", run(hold(r, 10)...))
	k.SpawnActivity("second", run(hold(r, 10)...))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if w := r.WaitTime.Max(); math.Abs(w-10) > 1e-9 {
		t.Errorf("max wait = %g, want 10", w)
	}
	// Average queue length over [0,20]: one waiter during [0,10] = 0.5.
	if ql := r.QueueLen.Mean(k.Now()); math.Abs(ql-0.5) > 1e-9 {
		t.Errorf("mean queue length = %g, want 0.5", ql)
	}
}

func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	// After an event fires, its struct returns to the free list and may be
	// reused by the next Schedule. A Timer held across the firing must not
	// cancel the struct's next tenant.
	k := NewKernel()
	var fired []string
	tm := k.Schedule(1, func() { fired = append(fired, "a") })
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	k.Schedule(1, func() { fired = append(fired, "b") })
	if tm.Cancel() {
		t.Error("stale Timer claimed to cancel a recycled event")
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != "b" {
		t.Errorf("fired = %v, want [a b]", fired)
	}
}

func TestCanceledEventRecycledAndReused(t *testing.T) {
	// A canceled event is collected dead and recycled; subsequent
	// schedules reuse it and run normally.
	k := NewKernel()
	ran := 0
	tm := k.Schedule(1, func() { t.Error("canceled event ran") })
	if !tm.Cancel() {
		t.Fatal("cancel failed")
	}
	for i := 0; i < 100; i++ {
		k.Schedule(float64(i), func() { ran++ })
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Errorf("ran = %d, want 100", ran)
	}
}

func TestNestedRunFromCallbackErrors(t *testing.T) {
	// Run/Advance from inside the simulation would clobber the active
	// drain window; it must surface as a run error, never hang.
	k := NewKernel()
	k.Schedule(1, func() { _ = k.Advance(50) })
	err := k.Run(10)
	if err == nil {
		t.Fatal("nested Advance from a callback did not error")
	}

	k2 := NewKernel()
	k2.SpawnActivity("p", run(wait(1), do(func(a *ActCtx) { _ = a.Kernel().Run(50) })))
	if err := k2.Run(10); err == nil {
		t.Fatal("nested Run from an activity did not error")
	}
}
