// Package sim is a deterministic discrete-event simulation kernel. It is
// the replacement for the commercial HyPerformix SES/Workbench tool the
// paper used.
//
// The kernel has one execution mode. A scheduled event carries either a
// callback (Schedule, ScheduleArg) or one step of an activity (Activity,
// ActCtx): a run-to-completion event handler the kernel calls inline in
// its dispatch loop, with no goroutines, channel operations or stack
// switches. A transaction in the SES/Workbench sense is an activity
// written as an explicit state machine. Every blocking primitive has a
// "try or register" form (AcquireAct, GetAct, PutAct, WaitAct): the fast
// path continues inline, the slow path registers the activity and
// returns, and the activity is stepped again when the wait is over.
//
// Events fire in (t, seq) order, where seq is the kernel's schedule
// counter, so ties in event time are broken by schedule order and the
// same seed and model always produce the same trajectory. The pending
// events live in a four-tier queue (queue.go): a two-level cycle wheel
// takes the events at integral times up to ~4096 cycles ahead — the
// whole-cycle waits of the HWP-cycle models on a 128-cycle near wheel,
// message hops hundreds of cycles out on a far wheel of 64-cycle blocks
// that cascade into it — sorted FIFO lanes take other events that
// arrive in order, and a 4-ary heap takes the rest; the front is the
// minimum over the near wheel, the lanes and the heap.
//
// For big models, ParKernel partitions a run across shard kernels advanced
// concurrently in conservative time windows, with cross-shard interactions
// routed through Kernel.Send under a declared lookahead. Barrier-time
// replay renumbering keeps the trajectory byte-identical to one serial
// kernel running the whole model, for every shard count and partition
// assignment — parallelism is an execution strategy, never a semantic.
package sim

import (
	"errors"
	"fmt"
)

// Time is simulated time. The models in this repository measure time in HWP
// clock cycles (the paper normalizes all times to heavyweight-processor
// cycles), but the kernel itself is unit-agnostic.
type Time = float64

// ErrDeadlock is returned by RunUntilIdle when no events remain but
// activities are still blocked in a wait queue.
var ErrDeadlock = errors.New("sim: deadlock: no scheduled events but activities remain blocked")

// event is a scheduled callback or activity step. Events are recycled
// through the kernel's free list once fired or collected dead, so
// steady-state scheduling does not allocate; gen distinguishes
// incarnations so a stale Timer cannot cancel the struct's next tenant.
// Activity steps carry the activity directly instead of a closure, keeping
// the kernel's hottest paths — Wait and blocking-wakeup events — entirely
// allocation-free; ScheduleArg callbacks likewise carry their argument out
// of line so one function value can serve many deliveries.
type event struct {
	t    Time
	seq  uint64  // tie-breaker: schedule order
	act  *ActCtx // when non-nil, step this activity
	fn   func()
	afn  func(any) // when non-nil, call afn(arg)
	arg  any
	dead bool   // canceled
	gen  uint64 // incarnation counter, bumped on recycle
	next *event // wheel bucket or far-block link while queued there (queue.go)
}

// Kernel is a discrete-event simulation instance. Create one with NewKernel;
// the zero value is not usable.
type Kernel struct {
	now Time
	// events is a pointer so a partitioned run can alias one shard of a
	// partitionedQueue here (see parallel.go); the calls stay devirtualized
	// *laneQueue methods either way.
	events *laneQueue
	free   []*event // recycled events (see event)
	seq    uint64

	// par is non-nil when this kernel is one shard of a ParKernel; it
	// carries the shard's window state and cross-shard buffers.
	par *shardState

	// acts lists every spawned, not-yet-reaped activity in spawn order;
	// exited ones are swept lazily. liveActs counts the not-yet-exited
	// ones, actsBlocked the subset registered in a wait structure with no
	// scheduled resumption (these count toward deadlock detection).
	acts        []*ActCtx
	liveActs    int
	actsBlocked int

	err error // first model panic, if any

	// until/bounded frame the current drain window (set by Advance, Run,
	// and RunUntilIdle; read by every dispatcher). strict excludes events
	// at exactly `until` — the half-open [W, W+L) windows of a partitioned
	// run; serial drains are inclusive and leave it false.
	until   Time
	bounded bool
	strict  bool

	// Tracer, if non-nil, observes activity state transitions. Used by the
	// trace package to build per-processor timelines.
	Tracer Tracer

	stopped bool // Stop() requested
	running bool // a drain window is active: Run/Advance must not reenter
}

// Tracer receives activity lifecycle callbacks. All callbacks run on the
// goroutine driving the kernel.
type Tracer interface {
	// ProcState is called when activity name enters the given informal
	// state ("start", "wait", "run", "done") at simulated time t.
	ProcState(t Time, name string, state string)
}

// NewKernel returns an empty simulation at time 0.
func NewKernel() *Kernel {
	return &Kernel{events: new(laneQueue)}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Timer is a handle to a scheduled callback; Cancel prevents a pending
// callback from firing. The generation pins the handle to one incarnation
// of the (recycled) event struct. Timer is a small value: copying it is
// free and the zero value is a no-op handle.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel marks the timer dead. Canceling an already-fired or already-
// canceled timer is a no-op. It reports whether the cancel took effect.
func (t Timer) Cancel() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	return true
}

// newEvent takes a recycled event (or allocates one), stamps it with the
// given time and the next sequence number, and leaves the payload fields
// for the caller to fill before pushing. Scheduling in the past panics
// (events must be causal).
func (k *Kernel) newEvent(t Time) *event {
	if t < k.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%g) before now (%g)", t, k.now))
	}
	ev := k.allocEvent(t)
	ev.seq = k.nextSeq()
	if sh := k.par; sh != nil && sh.window {
		sh.logCall(ev, ev.gen)
	}
	return ev
}

// allocEvent takes a recycled event from the free list (or allocates
// one) and stamps it live at time t; the caller assigns seq and payload.
func (k *Kernel) allocEvent(t Time) *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		ev.t, ev.dead = t, false
		return ev
	}
	return &event{t: t}
}

// nextSeq draws the next sequence number. A standalone kernel uses its own
// counter; a ParKernel shard draws from the shared counter while the run is
// single-threaded (setup, between windows) and from its provisional
// per-shard counter (rebased each window, renumbered to the exact serial
// values at the barrier — see parallel.go) while a window is draining.
func (k *Kernel) nextSeq() uint64 {
	if sh := k.par; sh != nil && !sh.window {
		s := sh.pk.seq
		sh.pk.seq++
		return s
	}
	s := k.seq
	k.seq++
	return s
}

// scheduleActEvent registers a step of activity a at absolute time t —
// the resumption path, allocation-free at steady state.
func (k *Kernel) scheduleActEvent(t Time, a *ActCtx) *event {
	ev := k.newEvent(t)
	ev.act = a
	k.events.push(ev)
	return ev
}

// ScheduleAt registers fn to run at absolute simulated time t. Scheduling
// in the past panics (events must be causal).
func (k *Kernel) ScheduleAt(t Time, fn func()) Timer {
	ev := k.newEvent(t)
	ev.fn = fn
	k.events.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// Schedule registers fn to run after the given delay (>= 0).
func (k *Kernel) Schedule(delay Time, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %g", delay))
	}
	return k.ScheduleAt(k.now+delay, fn)
}

// ScheduleArg registers fn(arg) to run after the given delay (>= 0). The
// callback and its argument travel separately through the (recycled)
// event, so one per-run function value can serve any number of scheduled
// deliveries with no closure allocation per call — the timed
// message-delivery path of the models. Passing a pointer as arg does not
// allocate.
func (k *Kernel) ScheduleArg(delay Time, fn func(any), arg any) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleArg with negative delay %g", delay))
	}
	return k.scheduleArgAt(k.now+delay, fn, arg)
}

// scheduleArgAt registers fn(arg) to run at absolute time t.
func (k *Kernel) scheduleArgAt(t Time, fn func(any), arg any) Timer {
	ev := k.newEvent(t)
	ev.afn, ev.arg = fn, arg
	k.events.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// Stop requests that the current Run call return after the event that is
// executing finishes. Remaining activities are finished as on normal
// completion.
func (k *Kernel) Stop() { k.stopped = true }

// dispatch executes due events until nothing is due within the current
// window (bound reached, queue empty, or the run stopped). Callbacks and
// activity steps both run inline on the calling goroutine.
//
// A panicking callback is recorded as the run's error and stops the run
// instead of unwinding the caller.
func (k *Kernel) dispatch() {
	q := k.events
	for !k.stopped {
		ev, src := q.front()
		if ev == nil {
			return
		}
		if ev.dead {
			q.take(src)
			k.recycle(ev)
			continue
		}
		if k.bounded && (ev.t > k.until || (k.strict && ev.t == k.until)) {
			return
		}
		q.take(src)
		k.now = ev.t
		if sh := k.par; sh != nil && sh.window {
			// Every schedule made while this event runs is logged under it
			// for the barrier's serial renumbering.
			sh.curT, sh.curSeq, sh.curLogged = ev.t, ev.seq, false
		}
		// The payload fields are read lazily, most-frequent kind first, so
		// the hot resume path touches as little of the event as possible.
		if a := ev.act; a != nil {
			k.recycle(ev)
			if !a.done {
				k.stepActivity(a)
			}
			continue
		}
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		k.recycle(ev)
		if afn != nil {
			k.runArgCallback(afn, arg)
		} else {
			k.runCallback(fn)
		}
	}
}

// runCallback runs one scheduled callback, converting a panic into the
// run's error so the failure surfaces from Run.
func (k *Kernel) runCallback(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			if k.err == nil {
				k.err = fmt.Errorf("sim: scheduled callback panicked: %v", r)
			}
			k.stopped = true
		}
	}()
	fn()
}

// runArgCallback is runCallback for ScheduleArg events.
func (k *Kernel) runArgCallback(fn func(any), arg any) {
	defer func() {
		if r := recover(); r != nil {
			if k.err == nil {
				k.err = fmt.Errorf("sim: scheduled callback panicked: %v", r)
			}
			k.stopped = true
		}
	}()
	fn(arg)
}

// recycle returns a popped event to the free list for the next
// newEvent. Bumping gen invalidates any Timer still holding the struct.
func (k *Kernel) recycle(ev *event) {
	ev.fn = nil
	ev.act = nil
	ev.afn = nil
	ev.arg = nil
	ev.gen++
	k.free = append(k.free, ev)
}

// drain runs the event loop over the given window. Reentry — Run or
// Advance called from a callback or activity while a window is active —
// would clobber the window, so it panics instead (surfacing as the run's
// error when it happens inside the simulation).
func (k *Kernel) drain(until Time, bounded bool) {
	if k.running {
		panic("sim: Run/Advance called from inside the running simulation")
	}
	k.running = true
	defer func() { k.running = false }()
	k.until, k.bounded = until, bounded
	k.dispatch()
}

// Advance runs the simulation up to simulated time `until` and returns the
// first model error, if any. Unlike Run it does not finish the remaining
// activities, so repeated Advance calls execute a simulation
// incrementally; after Advance returns, Now() == until (unless Stop was
// called). Advance must be called from outside the simulation — calling
// it from an activity or scheduled callback panics.
func (k *Kernel) Advance(until Time) error {
	if until < k.now {
		return fmt.Errorf("sim: Advance(%g) before now (%g)", until, k.now)
	}
	k.drain(until, true)
	if !k.stopped {
		k.now = until
	}
	return k.err
}

// Run advances the simulation until simulated time `until`, then finishes
// any remaining activities and returns the first model error (a panicking
// callback or Step), if any. After Run returns, Now() == until (unless
// Stop was called earlier).
func (k *Kernel) Run(until Time) error {
	if until < k.now {
		return fmt.Errorf("sim: Run(%g) before now (%g)", until, k.now)
	}
	k.drain(until, true)
	if !k.stopped {
		k.now = until
	}
	k.shutdown()
	return k.err
}

// RunUntilIdle advances the simulation until no events remain. It returns
// the final simulated time and ErrDeadlock if activities remain blocked in
// a wait queue, or the first model error. Activities that merely returned
// without a pending resumption are dormant by design (an idle
// event-oriented server) and do not count.
func (k *Kernel) RunUntilIdle() (Time, error) {
	k.drain(0, false)
	blocked := k.actsBlocked
	k.shutdown()
	if k.err == nil && blocked > 0 {
		return k.now, fmt.Errorf("%w (%d blocked)", ErrDeadlock, blocked)
	}
	return k.now, k.err
}

// shutdown finishes every remaining activity. Activities have no stack to
// unwind: finishing one marks it done, which also drops the blocked ones
// from the deadlock count. Pending events stay queued but can never step
// a finished activity.
func (k *Kernel) shutdown() {
	for _, a := range k.acts {
		k.finishAct(a)
	}
	k.acts = k.acts[:0]
	k.liveActs = 0
	k.actsBlocked = 0
}

// PopFront removes and returns the head of a FIFO slice by compacting in
// place: q[1:] would creep through the backing array and eventually
// reallocate, while shifting keeps steady-state queue traffic
// allocation-free (simulation queues are short, the copy is cheap). The
// kernel's wait queues and the queueing package's job queues share it.
func PopFront[T any](q []T) ([]T, T) {
	head := q[0]
	n := copy(q, q[1:])
	var zero T
	q[n] = zero
	return q[:n], head
}

// Idle reports whether nothing can ever happen again: no events are
// pending and no activities are blocked in a wait queue. Dormant
// activities (spawned, not exited, nothing pending) do not count — with no
// events left they will never be stepped again.
func (k *Kernel) Idle() bool { return k.events.size() == 0 && k.actsBlocked == 0 }

// PendingEvents returns the number of scheduled (possibly canceled) events;
// exposed for tests and diagnostics.
func (k *Kernel) PendingEvents() int { return k.events.size() }

// LiveActivities returns the number of spawned, not-yet-exited activities.
func (k *Kernel) LiveActivities() int { return k.liveActs }

func (k *Kernel) trace(t Time, name, state string) {
	if k.Tracer != nil {
		k.Tracer.ProcState(t, name, state)
	}
}
