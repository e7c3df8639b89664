package sim

import (
	"fmt"

	"repro/internal/stats"
)

// Store is a FIFO buffer of items of type T with optional capacity bound.
// GetAct waits while the store is empty; PutAct waits while it is full
// (if bounded). It is the kernel's message-queue primitive: mailboxes,
// parcel queues, and work pools are all Stores.
type Store[T any] struct {
	k        *Kernel
	name     string
	capacity int // 0 = unbounded
	items    []T
	getters  []*storeWaiter[T]
	putters  []*putWaiter[T]
	// freeGetW/freePutW recycle waiters (see storeWaiter).
	freeGetW []*storeWaiter[T]
	freePutW []*putWaiter[T]

	// Len is the time-weighted number of buffered items.
	Len stats.TimeWeighted
	// GetWait samples how long each get waited.
	GetWait stats.Sample

	puts, gets int64
}

// storeWaiter is one registered GetAct. Waiters are recycled through the
// store's free list, so the get path does not allocate at steady state.
type storeWaiter[T any] struct {
	a *ActCtx
	// owner pins a waiter to the store that registered it, so a GetAct on
	// a different store of the same element type cannot collect it by
	// accident.
	owner   *Store[T]
	item    T
	granted bool
	since   Time
}

// putWaiter is one registered PutAct on a full bounded store.
type putWaiter[T any] struct {
	a    *ActCtx
	item T
}

// NewStore creates an unbounded store.
func NewStore[T any](k *Kernel, name string) *Store[T] {
	return NewBoundedStore[T](k, name, 0)
}

// NewBoundedStore creates a store holding at most capacity items
// (capacity 0 means unbounded).
func NewBoundedStore[T any](k *Kernel, name string, capacity int) *Store[T] {
	if capacity < 0 {
		panic(fmt.Sprintf("sim: NewBoundedStore %q with negative capacity", name))
	}
	s := &Store[T]{k: k, name: name, capacity: capacity}
	s.Len.Set(k.now, 0)
	return s
}

// Name returns the store name.
func (s *Store[T]) Name() string { return s.name }

// Size returns the current number of buffered items.
func (s *Store[T]) Size() int { return len(s.items) }

// Puts returns the total number of completed put operations.
func (s *Store[T]) Puts() int64 { return s.puts }

// Gets returns the total number of completed get operations.
func (s *Store[T]) Gets() int64 { return s.gets }

// TryPut adds an item without blocking; it reports success. For unbounded
// stores it always succeeds.
func (s *Store[T]) TryPut(item T) bool {
	if s.capacity > 0 && len(s.items) >= s.capacity {
		return false
	}
	s.deposit(item)
	return true
}

// deposit inserts the item, serving a blocked getter directly if any.
func (s *Store[T]) deposit(item T) {
	s.puts++
	if len(s.getters) > 0 {
		var g *storeWaiter[T]
		s.getters, g = PopFront(s.getters)
		g.item = item
		g.granted = true
		s.gets++
		s.k.resumeBlockedAct(g.a)
		return
	}
	s.items = append(s.items, item)
	s.Len.Set(s.k.now, float64(len(s.items)))
}

// TryGet removes and returns the oldest item without blocking.
func (s *Store[T]) TryGet() (T, bool) {
	if len(s.items) == 0 {
		var zero T
		return zero, false
	}
	return s.takeHead(), true
}

// GetAct removes and returns the oldest item. Fast path: an item is
// buffered, it is taken and returned inline with ok true. Slow path: the
// store is empty, the activity is registered as a getter and (zero,
// false) returns; when an item arrives the activity is stepped again, and
// that step's GetAct call collects the delivered item (ok true). Between the registering call
// and the collecting call the activity must not interact with any other
// store. Steady-state allocation-free: waiters are recycled.
func (s *Store[T]) GetAct(a *ActCtx) (T, bool) {
	if w, ok := a.wslot.(*storeWaiter[T]); ok {
		if w.owner != s {
			panic(fmt.Sprintf("sim: activity %q called store %q GetAct with a wait in flight on store %q", a.name, s.name, w.owner.name))
		}
		if !w.granted {
			panic(fmt.Sprintf("sim: activity %q re-entered store %q GetAct without a delivery", a.name, s.name))
		}
		item := w.item
		s.GetWait.Add(s.k.now - w.since)
		a.wslot = nil
		var zero T
		w.item, w.a, w.owner, w.granted = zero, nil, nil, false
		s.freeGetW = append(s.freeGetW, w)
		return item, true
	}
	if len(s.items) > 0 {
		return s.takeHead(), true
	}
	s.k.blockAct(a)
	var w *storeWaiter[T]
	if n := len(s.freeGetW); n > 0 {
		w = s.freeGetW[n-1]
		s.freeGetW[n-1] = nil
		s.freeGetW = s.freeGetW[:n-1]
	} else {
		w = &storeWaiter[T]{}
	}
	w.a, w.owner, w.since = a, s, s.k.now
	s.getters = append(s.getters, w)
	a.wslot = w
	var zero T
	return zero, false
}

// PutAct adds an item. It deposits immediately (returning true) unless a
// bounded store is full, in which case the activity is registered as a
// putter and false returns; the item is deposited when space opens and
// the activity is stepped again — the resumption itself is the
// acknowledgement, no collecting call is needed.
func (s *Store[T]) PutAct(a *ActCtx, item T) bool {
	if s.capacity > 0 && len(s.items) >= s.capacity {
		s.k.blockAct(a)
		var w *putWaiter[T]
		if n := len(s.freePutW); n > 0 {
			w = s.freePutW[n-1]
			s.freePutW[n-1] = nil
			s.freePutW = s.freePutW[:n-1]
		} else {
			w = &putWaiter[T]{}
		}
		w.a, w.item = a, item
		s.putters = append(s.putters, w)
		return false
	}
	s.deposit(item)
	return true
}

func (s *Store[T]) takeHead() T {
	var item T
	s.items, item = PopFront(s.items)
	s.gets++
	s.GetWait.Add(0)
	s.Len.Set(s.k.now, float64(len(s.items)))
	s.admitPutter()
	return item
}

// admitPutter unblocks one waiting putter after space opens up.
func (s *Store[T]) admitPutter() {
	if len(s.putters) == 0 {
		return
	}
	if s.capacity > 0 && len(s.items) >= s.capacity {
		return
	}
	var w *putWaiter[T]
	s.putters, w = PopFront(s.putters)
	s.items = append(s.items, w.item)
	s.Len.Set(s.k.now, float64(len(s.items)))
	s.k.resumeBlockedAct(w.a)
	var zero T
	w.item, w.a = zero, nil
	s.freePutW = append(s.freePutW, w)
}

// Signal is a one-shot broadcast event: activities that WaitAct before
// Trigger are registered; Trigger releases all of them in registration
// order and subsequent waits return immediately. Reset rearms a fired
// signal for reuse.
type Signal struct {
	k         *Kernel
	name      string
	triggered bool
	waiters   []*ActCtx
}

// NewSignal creates an untriggered signal.
func NewSignal(k *Kernel, name string) *Signal {
	return &Signal{k: k, name: name}
}

// Triggered reports whether the signal has fired.
func (s *Signal) Triggered() bool { return s.triggered }

// WaitAct waits for the signal: true when it already fired (continue
// inline); false when the activity was registered — it is stepped again
// when Trigger fires. Allocation-free at steady state (the
// waiter list keeps its capacity across Reset cycles).
func (s *Signal) WaitAct(a *ActCtx) bool {
	if s.triggered {
		return true
	}
	s.k.blockAct(a)
	s.waiters = append(s.waiters, a)
	return false
}

// Trigger fires the signal, waking all waiters at the current time in
// registration order. Triggering twice is a no-op.
func (s *Signal) Trigger() {
	if s.triggered {
		return
	}
	s.triggered = true
	ws := s.waiters
	s.waiters = s.waiters[:0]
	for _, a := range ws {
		s.k.resumeBlockedAct(a)
	}
}

// Reset rearms a fired signal so it can gate another round (repeated
// fork/join phases reuse one signal instead of allocating per round).
// Waiters registered after a Reset block until the next Trigger.
func (s *Signal) Reset() { s.triggered = false }

// WaitGroup counts down from an initial count; WaitAct waits until the
// count reaches zero. It is the join primitive used for fork/join
// workloads such as the paper's Fig. 4 thread timeline.
type WaitGroup struct {
	sig   *Signal
	count int
}

// NewWaitGroup creates a WaitGroup with the given initial count (>= 0).
// A zero count is already done.
func NewWaitGroup(k *Kernel, name string, count int) *WaitGroup {
	if count < 0 {
		panic("sim: NewWaitGroup with negative count")
	}
	wg := &WaitGroup{sig: NewSignal(k, name), count: count}
	if count == 0 {
		wg.sig.Trigger()
	}
	return wg
}

// Done decrements the count, triggering completion at zero.
func (wg *WaitGroup) Done() {
	if wg.count <= 0 {
		panic("sim: WaitGroup.Done below zero")
	}
	wg.count--
	if wg.count == 0 {
		wg.sig.Trigger()
	}
}

// WaitAct is the join: true when the count is already zero,
// false when the activity was registered for the completion trigger.
func (wg *WaitGroup) WaitAct(a *ActCtx) bool { return wg.sig.WaitAct(a) }

// Count returns the remaining count.
func (wg *WaitGroup) Count() int { return wg.count }
