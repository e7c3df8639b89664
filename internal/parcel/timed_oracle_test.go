package parcel

// The timed machine's node is a closed-form FIFO server: a parcel costs
// one event, its arrival. This file keeps the formulation it replaced as
// the oracle: an activity per node fetching parcels from a store, waiting
// out the assimilation, the action and each continuation's creation with
// one event each, and a quiescence watcher woken by a signal.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/stats"
)

// actMachine is TimedMachine as activities.
type actMachine struct {
	env          *simtest.Env
	nodes        []*Node
	queues       []*simtest.Store[*Parcel]
	cost         CostModel
	latency      float64
	actionCycles func(a Action) float64

	busy    []stats.TimeWeighted
	handled []int64

	outstanding int64
	idleSig     simtest.Signal
	deliver     func(any)
	err         error
}

func newActMachine(k *sim.Kernel, n int, reg *Registry, cost CostModel, latency float64) *actMachine {
	tm := &actMachine{
		env:     simtest.New(k),
		cost:    cost,
		latency: latency,
		busy:    make([]stats.TimeWeighted, n),
		handled: make([]int64, n),
	}
	tm.deliver = func(x any) {
		q := x.(*Parcel)
		tm.queues[q.DestNode].Put(q)
	}
	for i := 0; i < n; i++ {
		tm.nodes = append(tm.nodes, NewNode(uint32(i), reg))
		tm.queues = append(tm.queues, simtest.NewStore[*Parcel](k))
		tm.busy[i].Set(k.Now(), 0)
	}
	for i := 0; i < n; i++ {
		tm.env.Spawn(fmt.Sprintf("pnode-%d", i), &actNode{tm: tm, i: i})
	}
	return tm
}

func (tm *actMachine) inject(p *Parcel) {
	tm.outstanding++
	tm.queues[p.DestNode].Put(p)
}

// actNode is one node's processor loop: take a parcel, assimilate it,
// perform its action, then emit each continuation after its creation
// overhead.
type actNode struct {
	tm    *actMachine
	i     int
	state int
	cur   *Parcel
	out   []*Parcel // continuations still to emit
}

// actNode states.
const (
	nodeTake     = iota // wait for the next parcel
	nodeAct             // assimilated: perform the action
	nodeHandle          // action time elapsed: run the handler
	nodeEmit            // emit out[0], paying its creation overhead first
	nodeDispatch        // creation overhead paid: send out[0]
)

func (n *actNode) Step(a *simtest.ActCtx) {
	tm, i := n.tm, n.i
	for {
		switch n.state {
		case nodeTake:
			p, ok := tm.queues[i].GetAct(a)
			if !ok {
				return
			}
			n.cur = p
			tm.busy[i].Set(a.Now(), 1)
			n.state = nodeAct
			if tm.cost.AssimilateCycles > 0 {
				a.Wait(tm.cost.AssimilateCycles)
				return
			}
		case nodeAct:
			cost := tm.actionCycles
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
				tm.fail(err)
				tm.finishParcel(i, a.Now())
				a.Exit()
				return
			}
			tm.handled[i]++
			n.out = out
			n.state = nodeEmit
		case nodeEmit:
			if len(n.out) == 0 {
				tm.finishParcel(i, a.Now())
				n.state = nodeTake
				continue
			}
			if q := n.out[0]; int(q.DestNode) >= len(tm.nodes) {
				tm.fail(fmt.Errorf("parcel: emitted parcel for node %d of %d", q.DestNode, len(tm.nodes)))
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
				lat = tm.latency
			}
			tm.outstanding++
			a.Kernel().ScheduleArg(lat, tm.deliver, q)
			n.state = nodeEmit
		}
	}
}

// fail records err unless an earlier error stands: errors happen here
// in time order, so the first one is the earliest.
func (tm *actMachine) fail(err error) {
	if tm.err == nil {
		tm.err = err
	}
}

// finishParcel retires the parcel node i just handled, waking the
// watcher when none remain.
func (tm *actMachine) finishParcel(i int, now sim.Time) {
	tm.outstanding--
	tm.busy[i].Set(now, 0)
	if tm.outstanding == 0 {
		tm.idleSig.Trigger()
		tm.idleSig.Reset()
	}
}

// runToQuiescence runs until no parcel is outstanding or until maxCycles,
// returning the completion time.
func (tm *actMachine) runToQuiescence(maxCycles sim.Time) (sim.Time, error) {
	k := tm.env.K
	if tm.outstanding == 0 {
		return k.Now(), nil
	}
	var done sim.Time = -1
	tm.env.Spawn("quiesce-watch", simtest.ActivityFunc(func(a *simtest.ActCtx) {
		for tm.outstanding > 0 {
			if !tm.idleSig.WaitAct(a) {
				return
			}
		}
		done = a.Now()
		a.Exit()
		k.Stop()
	}))
	if err := tm.env.Run(maxCycles); err != nil {
		return k.Now(), err
	}
	if tm.err != nil {
		return k.Now(), tm.err
	}
	if done < 0 {
		return k.Now(), fmt.Errorf("parcel: %d parcels still outstanding at cycle %g",
			tm.outstanding, maxCycles)
	}
	return done, nil
}

// Methods of the generated programs.
const (
	methodHop    = 1 // walk on: Operands = {hops left, sum}
	methodFanOut = 2 // AMO-add into several nodes, replies come back
	methodBroken = 3 // never registered: handling it is an error
)

// mix is a deterministic hash of a parcel's fields, standing in for the
// data-dependent choices of a real parcel program.
func mix(vs ...uint64) uint64 {
	sm := rng.SplitMix64{State: 0x9e3779b97f4a7c15}
	h := uint64(0)
	for _, v := range vs {
		sm.State ^= v + h
		h = sm.Next()
	}
	return h
}

// programRegistry registers the generated programs' methods on n nodes.
// A hop adds the word at its address into its sum and moves on (to its
// own node about one time in four) until its hops run out, then replies;
// a fan-out sends AMO-adds to several nodes, its own among them, each of
// which replies. breakAt > 0 makes the hop with that many hops left
// invoke the unregistered method and a fan-out's third AMO target a node
// that does not exist.
func programRegistry(n int, breakAt uint64) *Registry {
	reg := NewRegistry()
	reg.Register(methodHop, func(m *Memory, p *Parcel) []*Parcel {
		left, sum := p.Operands[0], p.Operands[1]+m.Load(p.DestAddr)
		m.Store(p.DestAddr, sum)
		if left == 0 {
			return []*Parcel{p.Reply(sum)}
		}
		h := mix(p.Seq, left, sum)
		next := uint32(h % uint64(n))
		if h>>32%4 == 0 {
			next = p.DestNode
		}
		q := &Parcel{
			DestNode: next, DestAddr: 0x100 + h>>40%8, Action: ActionInvoke, MethodID: methodHop,
			Operands: []uint64{left - 1, sum}, SrcNode: p.SrcNode, ContAddr: p.ContAddr, Seq: p.Seq,
		}
		if breakAt > 0 && left == breakAt {
			q.MethodID = methodBroken
		}
		return []*Parcel{q}
	})
	reg.Register(methodFanOut, func(m *Memory, p *Parcel) []*Parcel {
		var out []*Parcel
		for j := uint64(0); j < p.Operands[0]; j++ {
			dst := uint32(mix(p.Seq, j) % uint64(n))
			if j == 0 {
				dst = p.DestNode
			}
			if breakAt > 0 && j == 2 {
				dst = uint32(n) // no such node: emitting it is an error
			}
			out = append(out, &Parcel{
				DestNode: dst, DestAddr: 0x200 + j%4, Action: ActionAMOAdd, Operands: []uint64{j + 1},
				SrcNode: p.DestNode, ContAddr: 0x300 + p.Seq%16, Seq: p.Seq,
			})
		}
		m.Store(p.DestAddr, m.Load(p.DestAddr)+1)
		return out
	})
	return reg
}

// timedProgram is one generated run: machine shape, costs, and the
// parcels injected from outside with their injection times (ascending).
type timedProgram struct {
	nodes   int
	cost    CostModel
	latency float64
	action  func(Action) float64
	initial []*Parcel
	at      []sim.Time
}

// genProgram draws a program of chains and fan-outs on 1-16 nodes with
// non-integral latency and costs, injected at distinct non-integral
// times, so no two arrivals tie. (Chains injected at one instant would
// move in lockstep, their visits all the same length, and tie at every
// node they share.)
func genProgram(st *rng.Stream) timedProgram {
	pr := timedProgram{
		nodes:   1 + st.Intn(16),
		cost:    CostModel{CreateCycles: 0.5 + 3*st.Float64(), AssimilateCycles: 0.5 + 3*st.Float64()},
		latency: 20 + 600*st.Float64(),
	}
	if st.Intn(4) == 0 {
		pr.cost.CreateCycles = 0 // continuations leave at the action's end
	}
	mem, invoke := 1+10*st.Float64(), 5+30*st.Float64()
	pr.action = DefaultActionCycles(mem, invoke)
	at := 0.0
	for j := 1 + st.Intn(6); j > 0; j-- {
		pr.at = append(pr.at, at)
		at += 300 * st.Float64()
		p := &Parcel{
			DestNode: uint32(st.Intn(pr.nodes)), DestAddr: 0x100, Action: ActionInvoke,
			SrcNode: uint32(st.Intn(pr.nodes)), ContAddr: 0x400 + uint64(j), Seq: st.Uint64(),
		}
		if st.Intn(3) == 0 {
			p.MethodID, p.Operands = methodFanOut, []uint64{1 + uint64(st.Intn(5))}
		} else {
			p.MethodID, p.Operands = methodHop, []uint64{uint64(st.Intn(40)), 0}
		}
		pr.initial = append(pr.initial, p)
	}
	return pr
}

// timedOutcome is everything a run exposes.
type timedOutcome struct {
	makespan sim.Time
	err      error
	handled  []int64
	busy     []float64
	nodes    []*Node
}

// inject advances k to each injection time and injects a copy of the
// parcel (so each machine handles its own) through put.
func (pr timedProgram) inject(k *sim.Kernel, put func(*Parcel)) {
	for i, p := range pr.initial {
		if err := k.Run(pr.at[i]); err != nil {
			panic(err)
		}
		q := *p
		q.Operands = append([]uint64(nil), p.Operands...)
		put(&q)
	}
}

// stage seeds every node's memory with the same words.
func stage(nodes int, node func(int) *Node) {
	for i := 0; i < nodes; i++ {
		for a := uint64(0x100); a < 0x108; a++ {
			node(i).Mem.Store(a, uint64(i)*31+a)
		}
	}
}

func (pr timedProgram) runTimed(reg *Registry, maxCycles sim.Time) timedOutcome {
	k := sim.NewKernel()
	tm, err := NewTimedMachine(k, pr.nodes, reg, pr.cost, pr.latency)
	if err != nil {
		panic(err)
	}
	tm.ActionCycles = pr.action
	stage(pr.nodes, tm.Node)
	pr.inject(k, func(p *Parcel) {
		if err := tm.Inject(p); err != nil {
			panic(err)
		}
	})
	done, err := tm.RunToQuiescence(maxCycles)
	o := timedOutcome{makespan: done, err: err, handled: tm.Handled}
	for i := 0; i < pr.nodes; i++ {
		o.busy = append(o.busy, tm.BusyFrac(i, done))
		o.nodes = append(o.nodes, tm.Node(i))
	}
	return o
}

func (pr timedProgram) runActivities(reg *Registry, maxCycles sim.Time) timedOutcome {
	k := sim.NewKernel()
	tm := newActMachine(k, pr.nodes, reg, pr.cost, pr.latency)
	tm.actionCycles = pr.action
	stage(pr.nodes, func(i int) *Node { return tm.nodes[i] })
	pr.inject(k, tm.inject)
	done, err := tm.runToQuiescence(maxCycles)
	o := timedOutcome{makespan: done, err: err, handled: tm.handled}
	for i := 0; i < pr.nodes; i++ {
		o.busy = append(o.busy, tm.busy[i].Mean(done))
		o.nodes = append(o.nodes, tm.nodes[i])
	}
	return o
}

// TestTimedMatchesActivityOracle holds the closed-form TimedMachine to
// the activity formulation on generated parcel programs — hop chains,
// fan-outs whose AMOs reply, self-sends — bit for bit: the makespan,
// every node's handled count and busy fraction, every memory word and
// action count, and the error. Each program also runs cut at its
// makespan (it must still finish), cut halfway between its last
// injection and its makespan (it must fail the same way, with the same
// partial state), and with handler and emission errors.
func TestTimedMatchesActivityOracle(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 40
	}
	gen := rng.NewWithStream(24, 9)
	check := func(c int, what string, pr timedProgram, breakAt uint64, maxCycles sim.Time) timedOutcome {
		t.Helper()
		reg := programRegistry(pr.nodes, breakAt)
		got, want := pr.runTimed(reg, maxCycles), pr.runActivities(reg, maxCycles)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d %s (%d nodes, %d parcels, max %g):\n got  %+v\n want %+v",
				c, what, pr.nodes, len(pr.initial), maxCycles, got, want)
		}
		return got
	}
	var cut, broken int
	for c := 0; c < cases; c++ {
		pr := genProgram(gen)
		full := check(c, "full", pr, 0, 1e9)
		if full.err != nil {
			t.Fatalf("case %d: %v", c, full.err)
		}
		// A run cut exactly at the makespan still finishes: the horizon
		// is inclusive.
		if o := check(c, "exact", pr, 0, full.makespan); o.err != nil {
			t.Fatalf("case %d cut at its makespan %g: %v", c, full.makespan, o.err)
		}
		last := pr.at[len(pr.at)-1]
		if o := check(c, "cut", pr, 0, last+math.Floor((full.makespan-last)/2)); o.err != nil {
			cut++
		}
		if o := check(c, "broken", pr, 1+uint64(gen.Intn(8)), 1e9); o.err != nil {
			broken++
		}
	}
	t.Logf("%d cases: %d cut runs failed, %d runs had handler or emission errors", cases, cut, broken)
	if cut < cases/2 || broken < cases/4 {
		t.Errorf("edge cases too rare: %d cut runs and %d handler errors in %d cases", cut, broken, cases)
	}
}

// TestTimedKeepsEarliestError: of two failing handlers, the error that
// happens first stands, whichever parcel was injected first. Each
// generated program injects an invocation of an unregistered method and
// a write without its operand into two idle nodes at distinct times;
// a node runs its handler when the parcel lands, so the two errors are
// met in landing order but happen at the end of each action, and the
// invocation's action is the longer one. The activity oracle agrees bit
// for bit.
func TestTimedKeepsEarliestError(t *testing.T) {
	gen := rng.NewWithStream(30, 1)
	reg := programRegistry(2, 0)
	var swapped int
	for c := 0; c < 50; c++ {
		pr := genProgram(gen)
		pr.nodes = 2 + gen.Intn(15)
		mem, invoke := 1+10*gen.Float64(), 5+30*gen.Float64()
		pr.action = DefaultActionCycles(mem, invoke)
		bad := &Parcel{DestNode: 0, DestAddr: 0x100, Action: ActionInvoke, MethodID: methodBroken}
		short := &Parcel{DestNode: 1, DestAddr: 0x100, Action: ActionWrite}
		atBad, atShort := 0.0, 0.0
		if gen.Intn(2) == 0 {
			atShort = 0.5 + 50*gen.Float64()
			pr.initial, pr.at = []*Parcel{bad, short}, []sim.Time{atBad, atShort}
		} else {
			atBad = 0.5 + 50*gen.Float64()
			pr.initial, pr.at = []*Parcel{short, bad}, []sim.Time{atShort, atBad}
		}
		badEnd := atBad + pr.cost.AssimilateCycles + invoke
		shortEnd := atShort + pr.cost.AssimilateCycles + mem
		want := "parcel: write with 0 operands"
		if badEnd < shortEnd {
			want = fmt.Sprintf("parcel: unknown method %d", methodBroken)
		}
		if (badEnd < shortEnd) != (atBad < atShort) {
			swapped++
		}
		got, oracle := pr.runTimed(reg, 1e9), pr.runActivities(reg, 1e9)
		if got.err == nil || got.err.Error() != want {
			t.Fatalf("case %d: error %v, want %q (failing handlers end at %g and %g)",
				c, got.err, want, badEnd, shortEnd)
		}
		if !reflect.DeepEqual(got, oracle) {
			t.Fatalf("case %d:\n got  %+v\n want %+v", c, got, oracle)
		}
	}
	if swapped == 0 || swapped == 50 {
		t.Errorf("%d of 50 cases fail in the opposite order to their injections, want some but not all", swapped)
	}
}
