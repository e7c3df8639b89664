package parcel

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// TimedMachine executes real parcels on the DES kernel: each node is a
// simulated processor that assimilates parcels from its queue, performs
// the action against its functional memory, and emits continuations with
// creation overhead and network latency. It is the parcel-level
// counterpart of the statistical parcelsys model — same mechanism, actual
// parcels — and exists to cross-validate the two and to time real
// parcel programs (graph walks, reductions) rather than synthetic ones.
type TimedMachine struct {
	k      *sim.Kernel
	nodes  []*Node
	queues []*sim.Store[*Parcel]
	cost   CostModel
	// Latency is the flat one-way inter-node latency in cycles.
	Latency float64
	// ActionCycles prices the service time of each action; nil uses
	// DefaultActionCycles.
	ActionCycles func(a Action) float64

	// Busy tracks each node's time-weighted busy indicator.
	Busy []stats.TimeWeighted
	// Handled counts parcels serviced per node.
	Handled []int64

	outstanding int64
	idleSig     *sim.Signal
	deliver     func(any) // bound once: every delivery event reuses it
	err         error
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
		cost:    cost,
		Latency: latency,
		Busy:    make([]stats.TimeWeighted, n),
		Handled: make([]int64, n),
		idleSig: sim.NewSignal(k, "parcel-quiescent"),
	}
	tm.deliver = func(x any) {
		q := x.(*Parcel)
		tm.queues[q.DestNode].TryPut(q)
	}
	for i := 0; i < n; i++ {
		tm.nodes = append(tm.nodes, NewNode(uint32(i), reg))
		tm.queues = append(tm.queues, sim.NewStore[*Parcel](k, fmt.Sprintf("pq%d", i)))
		tm.Busy[i].Set(k.Now(), 0)
	}
	for i := 0; i < n; i++ {
		k.SpawnActivity(fmt.Sprintf("pnode-%d", i), &timedNode{tm: tm, i: i})
	}
	return tm, nil
}

// Node returns the functional node i (for staging memory and reading
// results).
func (tm *TimedMachine) Node(i int) *Node { return tm.nodes[i] }

// Inject enqueues a parcel from outside the machine at the current
// simulated time.
func (tm *TimedMachine) Inject(p *Parcel) error {
	if int(p.DestNode) >= len(tm.nodes) {
		return fmt.Errorf("parcel: inject to node %d of %d", p.DestNode, len(tm.nodes))
	}
	tm.outstanding++
	tm.queues[p.DestNode].TryPut(p)
	return nil
}

// timedNode is one node's processor loop: take a parcel, assimilate it,
// perform its action, then emit each continuation after its creation
// overhead.
type timedNode struct {
	tm    *TimedMachine
	i     int
	state int // see Step
	cur   *Parcel
	out   []*Parcel // continuations still to emit
}

// Node loop states.
const (
	nodeTake     = iota // wait for the next parcel
	nodeAct             // assimilated: perform the action
	nodeHandle          // action time elapsed: run the handler
	nodeEmit            // emit out[0], paying its creation overhead first
	nodeDispatch        // creation overhead paid: send out[0]
)

func (n *timedNode) Step(a *sim.ActCtx) {
	tm, i := n.tm, n.i
	for {
		switch n.state {
		case nodeTake:
			p, ok := tm.queues[i].GetAct(a)
			if !ok {
				return
			}
			n.cur = p
			tm.Busy[i].Set(a.Now(), 1)
			n.state = nodeAct
			if tm.cost.AssimilateCycles > 0 {
				a.Wait(tm.cost.AssimilateCycles)
				return
			}
		case nodeAct:
			cost := tm.ActionCycles
			if cost == nil {
				cost = defaultActionCycles
			}
			n.state = nodeHandle
			a.Wait(cost(n.cur.Action))
			return
		case nodeHandle:
			out, err := tm.nodes[i].Handle(n.cur)
			n.cur = nil
			if err != nil {
				tm.err = err
				tm.finishParcel(i, a.Now())
				a.Exit()
				return
			}
			tm.Handled[i]++
			n.out = out
			n.state = nodeEmit
		case nodeEmit:
			if len(n.out) == 0 {
				tm.finishParcel(i, a.Now())
				n.state = nodeTake
				continue
			}
			if q := n.out[0]; int(q.DestNode) >= len(tm.nodes) {
				tm.err = fmt.Errorf("parcel: emitted parcel for node %d of %d", q.DestNode, len(tm.nodes))
				n.out = n.out[1:]
				continue
			}
			n.state = nodeDispatch
			if tm.cost.CreateCycles > 0 {
				a.Wait(tm.cost.CreateCycles)
				return
			}
		case nodeDispatch:
			q := n.out[0]
			n.out = n.out[1:]
			lat := 0.0
			if q.DestNode != uint32(i) {
				lat = tm.Latency
			}
			tm.outstanding++
			a.Kernel().ScheduleArg(lat, tm.deliver, q)
			n.state = nodeEmit
		}
	}
}

// finishParcel retires the parcel node i just handled.
func (tm *TimedMachine) finishParcel(i int, now sim.Time) {
	tm.outstanding--
	tm.Busy[i].Set(now, 0)
	tm.maybeQuiesce()
}

// maybeQuiesce fires the quiescence signal when no parcels remain.
func (tm *TimedMachine) maybeQuiesce() {
	if tm.outstanding == 0 {
		tm.idleSig.Trigger()
		tm.idleSig.Reset()
	}
}

// RunToQuiescence advances the kernel until all injected parcels (and
// their transitive continuations) have been handled, or until maxCycles.
// It returns the completion time.
func (tm *TimedMachine) RunToQuiescence(maxCycles sim.Time) (sim.Time, error) {
	if tm.outstanding == 0 {
		return tm.k.Now(), nil
	}
	var done sim.Time = -1
	tm.k.SpawnActivity("quiesce-watch", sim.ActivityFunc(func(a *sim.ActCtx) {
		for tm.outstanding > 0 {
			if !tm.idleSig.WaitAct(a) {
				return
			}
		}
		done = a.Now()
		a.Exit()
		a.Kernel().Stop()
	}))
	if err := tm.k.Run(maxCycles); err != nil {
		return tm.k.Now(), err
	}
	if tm.err != nil {
		return tm.k.Now(), tm.err
	}
	if done < 0 {
		return tm.k.Now(), fmt.Errorf("parcel: %d parcels still outstanding at cycle %g",
			tm.outstanding, maxCycles)
	}
	return done, nil
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
