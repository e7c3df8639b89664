// Package simtest is the activity layer the sim kernel used to carry,
// kept for tests only: run-to-completion activities and the FIFO
// resource, unbounded store and signal they wait on, rebuilt on the
// kernel's public event API. The oracles the closed-form models are held
// to run on it — hostpim's kernel formulation, parcelsys's store nodes
// and control threads, parcel's activity TimedMachine, queueing's DES
// stations. No non-test file may import it (TestNoProductionImports).
//
// An activity is a state machine the kernel steps: Step runs inline,
// makes at most one wait or registration, and returns. Every blocking
// primitive has a "try or register" form (Resource.Acquire, Store.GetAct,
// Signal.WaitAct) whose fast path continues inline.
//
// A resumption is one event, k.ScheduleArgAt(t, step, a), which draws one
// schedule seq, exactly as the kernel's own activity resumptions did:
// activity models keep the trajectories they had on the old kernel.
package simtest

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Activity is a run-to-completion event handler. Step is called at the
// spawn time, after every Wait, and when a registration (resource grant,
// store delivery, signal trigger) completes. An activity ends by calling
// ActCtx.Exit.
type Activity interface {
	Step(a *ActCtx)
}

// ActivityFunc adapts a plain function to the Activity interface.
type ActivityFunc func(a *ActCtx)

// Step calls the function.
func (f ActivityFunc) Step(a *ActCtx) { f(a) }

// Env is the activity roster of one kernel.
type Env struct {
	K *sim.Kernel
	// Tracer, if non-nil, observes every activity's "start", "wait",
	// "run" and "done" states.
	Tracer trace.Tracer

	acts []*ActCtx
}

// New returns an empty roster on kernel k.
func New(k *sim.Kernel) *Env { return &Env{K: k} }

// Spawn starts act at the current simulated time.
func (e *Env) Spawn(name string, act Activity) *ActCtx {
	return e.SpawnAt(e.K.Now(), name, act)
}

// SpawnAt starts act at absolute time t.
func (e *Env) SpawnAt(t sim.Time, name string, act Activity) *ActCtx {
	a := &ActCtx{env: e, act: act, name: name, pending: true}
	e.acts = append(e.acts, a)
	e.resume(a, t)
	return a
}

// resume schedules a's next step at time t.
func (e *Env) resume(a *ActCtx, t sim.Time) { e.K.ScheduleArgAt(t, step, a) }

// step delivers one resumption.
func step(x any) {
	a := x.(*ActCtx)
	if a.done {
		return
	}
	a.pending = false
	if tr := a.env.Tracer; tr != nil {
		if !a.started {
			tr.ProcState(a.Now(), a.name, "start")
		} else if a.waitTraced {
			a.waitTraced = false
			tr.ProcState(a.Now(), a.name, "run")
		}
	}
	a.started = true
	a.act.Step(a)
}

// Run advances the kernel to until, then finishes every live activity.
func (e *Env) Run(until sim.Time) error {
	err := e.K.Run(until)
	e.Finish()
	return err
}

// ErrDeadlock reports activities left in a wait queue with no events left.
var ErrDeadlock = errors.New("simtest: deadlock: no events left but activities remain blocked")

// RunUntilIdle drains the kernel, then finishes every live activity. It
// returns the first model error, else Deadlock's verdict.
func (e *Env) RunUntilIdle() (sim.Time, error) {
	t, err := e.K.RunUntilIdle()
	if err == nil {
		err = e.Deadlock()
	}
	e.Finish()
	return t, err
}

// Deadlock returns ErrDeadlock if a live activity is registered in a wait
// queue, which with no events left can never release it. An activity
// that returned with nothing pending is dormant (an idle event-driven
// server) and does not count.
func (e *Env) Deadlock() error {
	n := 0
	for _, a := range e.acts {
		if a.waiting && !a.done {
			n++
		}
	}
	if n > 0 {
		return fmt.Errorf("%w (%d blocked)", ErrDeadlock, n)
	}
	return nil
}

// Finish ends every live activity in spawn order, as the end of a run
// does: each traces "done", and a resumption still queued is skipped.
func (e *Env) Finish() {
	for _, a := range e.acts {
		a.finish()
	}
	e.acts = e.acts[:0]
}

// ActCtx is one spawned activity: the handle its Step uses to wait.
type ActCtx struct {
	env  *Env
	act  Activity
	name string

	started bool // first step delivered (traces "start")
	done    bool // exited or finished at the end of the run
	// pending is set while a resumption is owed: a scheduled step or a
	// registration in a wait queue. A second one in one step is a bug.
	pending bool
	// waiting is set while the activity sits in a wait queue with no
	// scheduled step.
	waiting    bool
	waitTraced bool // a "wait" was traced; the resumption traces "run"

	n     int      // units of the resource acquisition in flight
	since sim.Time // when the current registration was made
	store any      // the store a GetAct registration is in flight on
	got   bool     // that store handed over an item
}

// Now returns the current simulated time.
func (a *ActCtx) Now() sim.Time { return a.env.K.Now() }

// Kernel returns the kernel the activity runs on.
func (a *ActCtx) Kernel() *sim.Kernel { return a.env.K }

// Done reports whether the activity has finished.
func (a *ActCtx) Done() bool { return a.done }

// Wait schedules the next step after d (>= 0).
func (a *ActCtx) Wait(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("simtest: Wait with negative duration %g", d))
	}
	a.waitAt(a.Now() + d)
}

// WaitUntil schedules the next step at exactly time t (>= now), not at
// now plus its difference from now, which can round differently.
func (a *ActCtx) WaitUntil(t sim.Time) {
	if t < a.Now() {
		panic(fmt.Sprintf("simtest: WaitUntil(%g) before now (%g)", t, a.Now()))
	}
	a.waitAt(t)
}

func (a *ActCtx) waitAt(t sim.Time) {
	if a.pending {
		panic(fmt.Sprintf("simtest: activity %q scheduled a second resumption in one step", a.name))
	}
	if tr := a.env.Tracer; tr != nil {
		tr.ProcState(a.Now(), a.name, "wait")
		a.waitTraced = true
	}
	a.pending = true
	a.env.resume(a, t)
}

// Exit ends the activity; a queued resumption is skipped. Exiting while
// registered in a wait queue is a bug (the grant would reach a dead
// activity) and panics.
func (a *ActCtx) Exit() {
	if a.waiting {
		panic(fmt.Sprintf("simtest: activity %q exited while registered in a wait queue", a.name))
	}
	a.finish()
}

func (a *ActCtx) finish() {
	if a.done {
		return
	}
	a.done = true
	if tr := a.env.Tracer; tr != nil {
		tr.ProcState(a.Now(), a.name, "done")
	}
}

// block registers the activity in a wait queue.
func (a *ActCtx) block() {
	if a.pending {
		panic(fmt.Sprintf("simtest: activity %q blocked while a resumption is already pending", a.name))
	}
	a.pending, a.waiting = true, true
	a.since = a.Now()
}

// unblock schedules a registered activity's step now; a finished one
// (end of run) is left alone.
func (a *ActCtx) unblock() {
	if a.done {
		return
	}
	a.waiting = false
	a.env.resume(a, a.Now())
}

// PopFront removes and returns the head of a FIFO slice, compacting in
// place so steady-state queue traffic does not allocate.
func PopFront[T any](q []T) ([]T, T) {
	head := q[0]
	n := copy(q, q[1:])
	var zero T
	q[n] = zero
	return q[:n], head
}

// Resource is a counted FIFO resource: the paper's SES/Workbench service
// node. A request that does not fit waits behind the queue head.
type Resource struct {
	k        *sim.Kernel
	capacity int
	inUse    int
	queue    []*ActCtx
	grants   int64

	// Util is the time-weighted number of units in use.
	Util stats.TimeWeighted
	// QueueLen is the time-weighted number of waiting requests.
	QueueLen stats.TimeWeighted
	// WaitTime samples each request's time in the queue.
	WaitTime stats.Sample
}

// NewResource creates a resource with the given positive capacity.
func NewResource(k *sim.Kernel, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("simtest: NewResource with capacity %d", capacity))
	}
	r := &Resource{k: k, capacity: capacity}
	r.Util.Set(k.Now(), 0)
	r.QueueLen.Set(k.Now(), 0)
	return r
}

// InUse returns the number of units held.
func (r *Resource) InUse() int { return r.inUse }

// Grants returns the number of acquisitions granted so far.
func (r *Resource) Grants() int64 { return r.grants }

// Utilization returns the mean fraction of capacity busy over [0, now].
func (r *Resource) Utilization(now sim.Time) float64 {
	return r.Util.Mean(now) / float64(r.capacity)
}

// Acquire takes n units: true when they are free and nobody queues ahead
// (the caller holds them and continues inline); otherwise the activity
// queues, false returns, and its next step holds the grant.
func (r *Resource) Acquire(a *ActCtx, n int) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("simtest: Acquire(%d) with capacity %d", n, r.capacity))
	}
	if len(r.queue) == 0 && r.capacity-r.inUse >= n {
		r.take(n)
		r.WaitTime.Add(0)
		return true
	}
	a.block()
	a.n = n
	r.queue = append(r.queue, a)
	r.QueueLen.Set(r.k.Now(), float64(len(r.queue)))
	return false
}

// Release returns n units and grants queued requests that now fit.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("simtest: Release(%d) with %d in use", n, r.inUse))
	}
	r.inUse -= n
	r.Util.Set(r.k.Now(), float64(r.inUse))
	for len(r.queue) > 0 && r.capacity-r.inUse >= r.queue[0].n {
		var head *ActCtx
		r.queue, head = PopFront(r.queue)
		r.QueueLen.Set(r.k.Now(), float64(len(r.queue)))
		r.take(head.n)
		r.WaitTime.Add(r.k.Now() - head.since)
		head.unblock()
	}
}

func (r *Resource) take(n int) {
	r.inUse += n
	r.grants++
	r.Util.Set(r.k.Now(), float64(r.inUse))
}

// Store is an unbounded FIFO buffer of items.
type Store[T any] struct {
	k       *sim.Kernel
	items   []T
	getters []*ActCtx
	// handed holds items given to resumed getters that have not yet
	// collected them, in hand-over order (the order they resume in).
	handed     []T
	puts, gets int64

	// Len is the time-weighted number of buffered items.
	Len stats.TimeWeighted
}

// NewStore creates an empty store.
func NewStore[T any](k *sim.Kernel) *Store[T] {
	s := &Store[T]{k: k}
	s.Len.Set(k.Now(), 0)
	return s
}

// Size returns the number of buffered items.
func (s *Store[T]) Size() int { return len(s.items) }

// Puts returns the number of items put.
func (s *Store[T]) Puts() int64 { return s.puts }

// Gets returns the number of items taken.
func (s *Store[T]) Gets() int64 { return s.gets }

// Put adds an item, handing it straight to the longest-waiting getter if
// there is one.
func (s *Store[T]) Put(item T) {
	s.puts++
	if len(s.getters) > 0 {
		var g *ActCtx
		s.getters, g = PopFront(s.getters)
		g.got = true
		s.handed = append(s.handed, item)
		s.gets++
		g.unblock()
		return
	}
	s.items = append(s.items, item)
	s.Len.Set(s.k.Now(), float64(len(s.items)))
}

// GetAct takes the oldest item. With an item buffered it returns it
// inline (ok true); otherwise the activity registers, (zero, false)
// returns, and the step that resumes it must call GetAct again to
// collect the item handed over.
func (s *Store[T]) GetAct(a *ActCtx) (item T, ok bool) {
	if a.store != nil {
		if a.store != any(s) {
			panic(fmt.Sprintf("simtest: activity %q called GetAct on one store with a wait in flight on another", a.name))
		}
		if !a.got {
			panic(fmt.Sprintf("simtest: activity %q re-entered GetAct without a delivery", a.name))
		}
		a.store, a.got = nil, false
		s.handed, item = PopFront(s.handed)
		return item, true
	}
	if len(s.items) > 0 {
		s.items, item = PopFront(s.items)
		s.gets++
		s.Len.Set(s.k.Now(), float64(len(s.items)))
		return item, true
	}
	a.block()
	a.store = s
	s.getters = append(s.getters, a)
	return item, false
}

// Signal is a broadcast event: activities that WaitAct before Trigger
// register, Trigger releases them in registration order, and later waits
// return at once until Reset rearms it.
type Signal struct {
	triggered bool
	waiters   []*ActCtx
}

// WaitAct returns true when the signal has fired; otherwise the activity
// registers, false returns, and it is stepped again at the trigger.
func (s *Signal) WaitAct(a *ActCtx) bool {
	if s.triggered {
		return true
	}
	a.block()
	s.waiters = append(s.waiters, a)
	return false
}

// Trigger fires the signal, waking every waiter now in registration
// order. Triggering a fired signal does nothing.
func (s *Signal) Trigger() {
	if s.triggered {
		return
	}
	s.triggered = true
	for _, a := range s.waiters {
		a.unblock()
	}
	s.waiters = s.waiters[:0]
}

// Reset rearms a fired signal.
func (s *Signal) Reset() { s.triggered = false }
