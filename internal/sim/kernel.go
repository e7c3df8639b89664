// Package sim is a deterministic discrete-event simulation kernel. It is
// the replacement for the commercial HyPerformix SES/Workbench tool the
// paper used.
//
// The kernel has one event kind: a scheduled callback, a function and
// its argument carried through a recycled event (ScheduleArg,
// ScheduleArgAt), run inline by the dispatch loop. Models keep their own
// state: a service node in the SES/Workbench sense is a closed-form
// server that books its busy period when a job arrives and schedules the
// job's next arrival, so a job's visit costs one event. (The
// run-to-completion activities and the resources, stores and signals
// they waited on are a test-only layer on this API, in
// internal/sim/simtest, for the oracles the closed-form models are held
// to.)
//
// Events fire in (t, seq) order, where seq is the kernel's schedule
// counter, so ties in event time are broken by schedule order and the
// same seed and model always produce the same trajectory. The pending
// events live in a three-tier queue (queue.go): a two-level cycle wheel
// takes the events at integral times up to ~4096 cycles ahead — the
// whole-cycle waits of the HWP-cycle models on a 128-cycle near wheel,
// message hops hundreds of cycles out on a far wheel of 64-cycle blocks
// that cascade into it — and a 4-ary heap takes the rest; the front is
// the minimum of the near wheel and the heap.
//
// A kernel runs on one goroutine. Models that share nothing run in
// parallel as separate kernels, one per goroutine — parcelsys runs its
// two systems side by side this way.
package sim

import (
	"errors"
	"fmt"
)

// Time is simulated time. The models in this repository measure time in HWP
// clock cycles (the paper normalizes all times to heavyweight-processor
// cycles), but the kernel itself is unit-agnostic.
type Time = float64

// event is a scheduled callback. Events are recycled through the
// kernel's free list once fired, so steady-state scheduling does not
// allocate. The callback and its argument travel separately, so one
// function value can serve many deliveries with no closure per call.
type event struct {
	t    Time
	seq  uint64 // tie-breaker: schedule order
	fn   func(any)
	arg  any
	next *event // wheel bucket or far-block link while queued there (queue.go)
}

// Kernel is a discrete-event simulation instance. Create one with
// NewKernel.
type Kernel struct {
	now    Time
	events wheelQueue
	free   []*event // recycled events (see event)
	seq    uint64

	err error // first model panic, if any

	// until/bounded frame the current drain window, inclusive of until
	// (set by Run and RunUntilIdle; read by dispatch).
	until   Time
	bounded bool

	stopped bool // Stop() requested
	running bool // a drain window is active: Run must not reenter
}

// NewKernel returns an empty simulation at time 0.
func NewKernel() *Kernel {
	return new(Kernel)
}

// Reset returns k to the state NewKernel leaves it in — time 0, no
// pending events, not stopped, no error — but keeps the memory it has
// grown: the recycled events and the queue's wheels and heap array. The
// events still pending are dropped unrun. A model that runs many
// independent trajectories one after another reuses one kernel this way
// without reallocating it. Reset must be called from outside the
// simulation.
func (k *Kernel) Reset() {
	if k.running {
		panic("sim: Reset called from inside the running simulation")
	}
	for ev := k.events.pop(); ev != nil; ev = k.events.pop() {
		ev.fn, ev.arg = nil, nil
		k.free = append(k.free, ev)
	}
	k.events.lo = 0
	k.now, k.seq, k.stopped, k.err = 0, 0, false, nil
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// ScheduleArg registers fn(arg) to run after the given delay (>= 0). The
// callback and its argument travel separately through the (recycled)
// event, so one per-run function value can serve any number of scheduled
// deliveries with no closure allocation per call — the timed
// message-delivery path of the models. Passing a pointer as arg does not
// allocate.
func (k *Kernel) ScheduleArg(delay Time, fn func(any), arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleArg with negative delay %g", delay))
	}
	k.ScheduleArgAt(k.now+delay, fn, arg)
}

// ScheduleArgAt registers fn(arg) to run at absolute time t. A model that
// sums a busy period itself schedules at the sum, not after its
// difference from now, which can round differently. Scheduling in the
// past panics (events must be causal). The event takes the next
// sequence number, so the queue sees seqs in ascending order.
func (k *Kernel) ScheduleArgAt(t Time, fn func(any), arg any) {
	if t < k.now {
		panic(fmt.Sprintf("sim: ScheduleArgAt(%g) before now (%g)", t, k.now))
	}
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.t, ev.seq, ev.fn, ev.arg = t, k.seq, fn, arg
	k.seq++
	k.events.push(ev)
}

// Stop requests that the current Run call return after the event that is
// executing finishes. The halt is for good: every later Run or
// RunUntilIdle dispatches nothing, leaves Now() where the run stopped and
// returns ErrStopped (or the run's first model error, which also stops
// it).
func (k *Kernel) Stop() { k.stopped = true }

// ErrStopped is returned by a run call on a kernel that a Stop has
// already halted.
var ErrStopped = errors.New("sim: kernel already stopped")

// haltErr is the error of a run call made after the kernel halted: its
// first model error, else ErrStopped; nil while it can still run.
func (k *Kernel) haltErr() error {
	switch {
	case !k.stopped:
		return nil
	case k.err != nil:
		return k.err
	}
	return ErrStopped
}

// dispatch executes due events until nothing is due within the current
// window (bound reached, queue empty, or the run stopped). Callbacks run
// inline on the calling goroutine.
func (k *Kernel) dispatch() {
	q := &k.events
	for !k.stopped {
		ev, src := q.front()
		if ev == nil || k.bounded && ev.t > k.until {
			return
		}
		q.take(src)
		k.now = ev.t
		fn, arg := ev.fn, ev.arg
		ev.fn, ev.arg = nil, nil
		k.free = append(k.free, ev)
		k.runCallback(fn, arg)
	}
}

// runCallback runs one scheduled callback, converting a panic into the
// run's error so the failure surfaces from Run instead of unwinding the
// caller.
func (k *Kernel) runCallback(fn func(any), arg any) {
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

// drain runs the event loop over the given window. Reentry — Run called
// from a callback while a window is active — would clobber the window,
// so it panics instead (surfacing as the run's error when it happens
// inside the simulation).
func (k *Kernel) drain(until Time, bounded bool) {
	if k.running {
		panic("sim: Run called from inside the running simulation")
	}
	k.running = true
	defer func() { k.running = false }()
	k.until, k.bounded = until, bounded
	k.dispatch()
}

// Run runs the simulation up to simulated time `until` and returns the
// first model error (a panicking callback), if any. After Run returns,
// Now() == until (unless Stop was called), so repeated calls execute a
// simulation incrementally. Run must be called from outside the
// simulation — calling it from a scheduled callback panics.
func (k *Kernel) Run(until Time) error {
	if err := k.haltErr(); err != nil {
		return err
	}
	if until < k.now {
		return fmt.Errorf("sim: Run(%g) before now (%g)", until, k.now)
	}
	k.drain(until, true)
	if !k.stopped {
		k.now = until
	}
	return k.err
}

// RunUntilIdle advances the simulation until no events remain and returns
// the final simulated time and the first model error, if any.
func (k *Kernel) RunUntilIdle() (Time, error) {
	if err := k.haltErr(); err != nil {
		return k.now, err
	}
	k.drain(0, false)
	return k.now, k.err
}

// PendingEvents returns the number of scheduled events; exposed for
// tests and diagnostics.
func (k *Kernel) PendingEvents() int { return k.events.size() }
