package parcel

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
)

// TimedMachine executes real parcels on the DES kernel: each node is a
// simulated processor that assimilates parcels in arrival order, performs
// the action against its functional memory, and emits continuations with
// creation overhead and network latency. It is the parcel-level
// counterpart of the statistical parcelsys model — same mechanism, actual
// parcels — and exists to cross-validate the two and to time real
// parcel programs (graph walks, reductions) rather than synthetic ones.
//
// Each node is a closed-form FIFO server, like parcelsys's test node: a
// parcel costs one event, its arrival, which books the node's next busy
// period, handles the parcel and sends its continuations. The handler
// runs at arrival rather than when the action completes; a node's memory
// is its own and it serves parcels in arrival order, so the results are
// the same.
type TimedMachine struct {
	k     *sim.Kernel
	nodes []*Node
	free  []sim.Time // when each node finishes its booked parcels
	dead  []bool     // the node stopped at a handler error
	cost  CostModel
	// Latency is the flat one-way inter-node latency in cycles.
	Latency float64
	// ActionCycles prices the service time of each action; nil uses
	// DefaultActionCycles.
	ActionCycles func(a Action) float64

	// Busy tracks each node's time-weighted busy indicator.
	Busy []stats.TimeWeighted
	// Handled counts parcels serviced per node.
	Handled []int64

	// outstanding counts parcels injected or sent and not yet finished
	// by the horizon; last is the latest finish.
	outstanding int64
	last        sim.Time
	horizon     sim.Time  // maxCycles of the last RunToQuiescence, else +Inf
	arrive      func(any) // bound once: every arrival event reuses it
	err         error     // the earliest handler or emission error
	errAt       sim.Time  // when err happened
}

// DefaultActionCycles prices memory-touching actions at memCycles and
// invocations at invokeCycles.
func DefaultActionCycles(memCycles, invokeCycles float64) func(Action) float64 {
	return func(a Action) float64 {
		switch a {
		case ActionInvoke:
			return invokeCycles
		default:
			return memCycles
		}
	}
}

// defaultActionCycles prices actions when ActionCycles is nil.
var defaultActionCycles = DefaultActionCycles(6, 20)

// NewTimedMachine creates an n-node timed parcel machine on kernel k.
func NewTimedMachine(k *sim.Kernel, n int, reg *Registry, cost CostModel, latency float64) (*TimedMachine, error) {
	if n <= 0 {
		return nil, fmt.Errorf("parcel: NewTimedMachine(%d)", n)
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	if latency < 0 {
		return nil, fmt.Errorf("parcel: negative latency %g", latency)
	}
	tm := &TimedMachine{
		k:       k,
		free:    make([]sim.Time, n),
		dead:    make([]bool, n),
		cost:    cost,
		Latency: latency,
		Busy:    make([]stats.TimeWeighted, n),
		Handled: make([]int64, n),
		horizon: math.Inf(1),
	}
	tm.arrive = tm.land
	for i := 0; i < n; i++ {
		tm.nodes = append(tm.nodes, NewNode(uint32(i), reg))
		tm.Busy[i].Set(k.Now(), 0)
	}
	return tm, nil
}

// Node returns the functional node i (for staging memory and reading
// results).
func (tm *TimedMachine) Node(i int) *Node { return tm.nodes[i] }

// Inject delivers a parcel from outside the machine at the current
// simulated time.
func (tm *TimedMachine) Inject(p *Parcel) error {
	if int(p.DestNode) >= len(tm.nodes) {
		return fmt.Errorf("parcel: inject to node %d of %d", p.DestNode, len(tm.nodes))
	}
	tm.send(tm.k.Now(), p)
	return nil
}

// send launches parcel p to land at time t.
func (tm *TimedMachine) send(t sim.Time, p *Parcel) {
	tm.outstanding++
	tm.k.ScheduleArgAt(t, tm.arrive, p)
}

// fail records err, which happened at time t; of several errors the
// earliest one stands, the first cause. A node runs its handler when the
// parcel lands, ahead of the time the handling ends, so errors are not
// met in time order.
func (tm *TimedMachine) fail(err error, t sim.Time) {
	if tm.err == nil || t < tm.errAt {
		tm.err, tm.errAt = err, t
	}
}

// land is a parcel's arrival. It books the node's busy period from
// max(now, free): assimilation, the action, then each continuation's
// creation overhead, summed in that order; the handler runs here, and
// continuation j leaves when its creation ends and lands one latency
// later (a self-send at once). Each step happens only if it ends by the
// horizon, as in a run cut there; a parcel that does not finish by then
// stays outstanding.
func (tm *TimedMachine) land(x any) {
	p := x.(*Parcel)
	i := int(p.DestNode)
	if tm.dead[i] {
		return
	}
	t := max(tm.k.Now(), tm.free[i])
	if t > tm.horizon {
		return // the node is booked past the horizon
	}
	tm.Busy[i].Set(t, 1)
	t += tm.cost.AssimilateCycles
	cost := tm.ActionCycles
	if cost == nil {
		cost = defaultActionCycles
	}
	t += cost(p.Action)
	if tm.free[i] = t; t > tm.horizon {
		return
	}
	out, err := tm.nodes[i].Handle(p)
	if err != nil {
		tm.fail(err, t)
		tm.dead[i] = true
		tm.finish(i, t)
		return
	}
	tm.Handled[i]++
	for _, q := range out {
		if int(q.DestNode) >= len(tm.nodes) {
			tm.fail(fmt.Errorf("parcel: emitted parcel for node %d of %d", q.DestNode, len(tm.nodes)), t)
			continue
		}
		t += tm.cost.CreateCycles
		if tm.free[i] = t; t > tm.horizon {
			return
		}
		lat := 0.0
		if q.DestNode != uint32(i) {
			lat = tm.Latency
		}
		tm.send(t+lat, q)
	}
	tm.finish(i, t)
}

// finish retires the parcel node i finished at time t.
func (tm *TimedMachine) finish(i int, t sim.Time) {
	tm.outstanding--
	tm.Busy[i].Set(t, 0)
	tm.last = max(tm.last, t)
}

// RunToQuiescence advances the kernel until all injected parcels (and
// their transitive continuations) have been handled, or until maxCycles.
// It returns the completion time.
func (tm *TimedMachine) RunToQuiescence(maxCycles sim.Time) (sim.Time, error) {
	if tm.outstanding == 0 {
		return tm.k.Now(), nil
	}
	tm.horizon = maxCycles
	if err := tm.k.Run(maxCycles); err != nil {
		return tm.k.Now(), err
	}
	if tm.outstanding > 0 {
		if tm.err != nil {
			return tm.k.Now(), tm.err
		}
		return tm.k.Now(), fmt.Errorf("parcel: %d parcels still outstanding at cycle %g",
			tm.outstanding, maxCycles)
	}
	return tm.last, tm.err
}

// TotalHandled sums handled parcels across nodes.
func (tm *TimedMachine) TotalHandled() int64 {
	var s int64
	for _, h := range tm.Handled {
		s += h
	}
	return s
}

// BusyFrac returns node i's busy fraction over [0, now].
func (tm *TimedMachine) BusyFrac(i int, now sim.Time) float64 {
	return tm.Busy[i].Mean(now)
}
