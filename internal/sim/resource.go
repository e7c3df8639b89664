package sim

import (
	"fmt"

	"repro/internal/stats"
)

// Discipline selects the queueing discipline of a Resource.
type Discipline int

// Queueing disciplines.
const (
	FIFO     Discipline = iota // first come, first served
	LIFO                       // last come, first served
	Priority                   // lowest priority value first; FIFO within equal priority
)

func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "FIFO"
	case LIFO:
		return "LIFO"
	case Priority:
		return "Priority"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Resource is a counted resource (server pool, memory port, link) with a
// wait queue. It corresponds to the "service node" primitive of the paper's
// SES/Workbench models. Utilization and queue length are tracked as
// time-weighted statistics; waiting time as a plain sample.
type Resource struct {
	k          *Kernel
	name       string
	capacity   int
	inUse      int
	discipline Discipline
	queue      []*resWaiter

	// Util is the time-weighted number of busy units; Util.Mean(now) /
	// capacity is the classical utilization ρ.
	Util stats.TimeWeighted
	// QueueLen is the time-weighted number of waiting requests.
	QueueLen stats.TimeWeighted
	// WaitTime samples the time each request spent queued before service.
	WaitTime stats.Sample

	grants int64 // total successful acquisitions
}

// resWaiter is one queued acquisition. It is embedded in the ActCtx (an
// activity blocks on at most one resource at a time), so queueing does
// not allocate.
type resWaiter struct {
	a     *ActCtx
	n     int
	prio  float64
	since Time
}

// NewResource creates a resource with the given capacity and discipline.
// Capacity must be positive.
func NewResource(k *Kernel, name string, capacity int, d Discipline) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: NewResource %q with capacity %d", name, capacity))
	}
	r := &Resource{k: k, name: name, capacity: capacity, discipline: d}
	r.Util.Set(k.now, 0)
	r.QueueLen.Set(k.now, 0)
	return r
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Free returns the number of available units.
func (r *Resource) Free() int { return r.capacity - r.inUse }

// QueueLength returns the number of requests currently waiting.
func (r *Resource) QueueLength() int { return len(r.queue) }

// Grants returns the number of acquisitions granted so far.
func (r *Resource) Grants() int64 { return r.grants }

// Acquire1Act is AcquireAct for the common single-unit, zero-priority
// case.
func (r *Resource) Acquire1Act(a *ActCtx) bool { return r.AcquireAct(a, 1, 0) }

// AcquireAct obtains n units with the given priority (lower is served
// first under the Priority discipline; ignored otherwise). When n units
// are free and nobody queues ahead it takes them and returns true — the
// caller holds the resource and continues inline. Otherwise it registers
// the activity in the queue and returns false; the caller's Step must
// return, and the activity is stepped again holding the grant.
// Allocation-free.
func (r *Resource) AcquireAct(a *ActCtx, n int, prio float64) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: AcquireAct(%d) on resource %q with capacity %d", n, r.name, r.capacity))
	}
	now := r.k.now
	if len(r.queue) == 0 && r.capacity-r.inUse >= n {
		r.take(n, now)
		r.WaitTime.Add(0)
		return true
	}
	r.k.blockAct(a)
	w := &a.rw
	w.n, w.prio, w.since = n, prio, now
	r.enqueue(w)
	r.QueueLen.Set(now, float64(len(r.queue)))
	return false
}

// TryAcquire obtains n units without registering in the queue; it reports
// success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: TryAcquire(%d) on resource %q with capacity %d", n, r.name, r.capacity))
	}
	if len(r.queue) == 0 && r.capacity-r.inUse >= n {
		r.take(n, r.k.now)
		r.WaitTime.Add(0)
		return true
	}
	return false
}

// Release returns n units and dispatches queued waiters.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic(fmt.Sprintf("sim: Release(%d) on resource %q with %d in use", n, r.name, r.inUse))
	}
	r.inUse -= n
	r.Util.Set(r.k.now, float64(r.inUse))
	r.dispatch()
}

func (r *Resource) take(n int, now Time) {
	r.inUse += n
	r.grants++
	r.Util.Set(now, float64(r.inUse))
}

func (r *Resource) enqueue(w *resWaiter) {
	switch r.discipline {
	case FIFO:
		r.queue = append(r.queue, w)
	case LIFO:
		r.queue = append([]*resWaiter{w}, r.queue...)
	case Priority:
		// Stable insert: after all waiters with priority <= w.prio.
		idx := len(r.queue)
		for i, q := range r.queue {
			if q.prio > w.prio {
				idx = i
				break
			}
		}
		r.queue = append(r.queue, nil)
		copy(r.queue[idx+1:], r.queue[idx:])
		r.queue[idx] = w
	default:
		panic(fmt.Sprintf("sim: unknown discipline %v", r.discipline))
	}
}

// dispatch grants queued requests while units are available. Grants respect
// the queue head strictly (no bypassing a large request with a small one),
// which keeps FIFO fairness exact.
func (r *Resource) dispatch() {
	for len(r.queue) > 0 {
		head := r.queue[0]
		if r.capacity-r.inUse < head.n {
			return
		}
		r.queue, _ = PopFront(r.queue)
		r.QueueLen.Set(r.k.now, float64(len(r.queue)))
		r.take(head.n, r.k.now)
		r.WaitTime.Add(r.k.now - head.since)
		r.k.resumeBlockedAct(head.a)
	}
}

// Utilization returns the mean fraction of capacity busy over the run.
func (r *Resource) Utilization(now Time) float64 {
	return r.Util.Mean(now) / float64(r.capacity)
}

// ResetStats restarts all statistics at time t (warm-up truncation).
func (r *Resource) ResetStats(t Time) {
	r.Util.Reset(t)
	r.QueueLen.Reset(t)
	r.WaitTime = stats.Sample{}
	r.grants = 0
}
