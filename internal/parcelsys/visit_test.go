package parcelsys

// The test system's node is a FIFO server in closed form: a parcel's hop
// costs one kernel event, its landing, which books the visit and sends
// the parcel on. This file keeps the two formulations it replaced as
// oracles, both activities fetching parcels from a store (on the test-only
// activity layer, internal/sim/simtest):
//
//   - storeNode plans the parcel's whole visit when it fetches the
//     parcel, waits it out with one event and ships at its end;
//   - pieceNode spends one event on each piece of the visit
//     (assimilation, migrated access, each useful run, each local access,
//     creation), the model as first written.
//
// All three draw the same numbers from every parcel's streams and credit
// the same pieces by the horizon, so they differ only where the order of
// same-time events matters: which of two parcels landing on one node at
// one instant is queued first, and — since a hop sends at booking time,
// not at visit end — how the landing events are numbered. Without remote
// traffic no parcel ever moves, and on two nodes no two parcels can land
// on one node at one instant, so there the runs must be identical bit
// for bit; elsewhere they must agree statistically.

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// storeNode is a test node as an activity over a store of pending
// parcels. It plans a visit whole when it fetches the parcel (visit),
// marks the node busy once and waits the visit out with one event; then
// the continuation ships one-way and the node services its next pending
// parcel. Its two states are fetching (wp nil) and visiting (wp the
// parcel).
type storeNode struct {
	*testNode
	queue   *simtest.Store[*workParcel]
	deliver func(any) // puts a landing parcel in its destination's queue
	wp      *workParcel
}

// Step ends the visit in progress, if any, and starts the next one; it
// loops forever (the horizon kill ends it).
func (n *storeNode) Step(a *simtest.ActCtx) {
	if n.wp != nil {
		n.ns.busy.Add(a.Now(), -1)
		n.ship(a)
	}
	for {
		// Idle while the queue is empty (the registration blocks).
		wp, ok := n.queue.GetAct(a)
		if !ok {
			return
		}
		n.wp = wp
		if end := n.visit(wp, a.Now()); end > a.Now() {
			n.ns.busy.Add(a.Now(), 1)
			a.WaitUntil(end)
			return
		}
		n.ship(a) // a visit with no busy time ships at once
	}
}

// ship sends the visited parcel one-way to its destination, where it
// first performs the remote access it migrated for.
func (n *storeNode) ship(a *simtest.ActCtx) {
	n.ns.rem++
	wp := n.wp
	wp.pendingAccess = true
	wp.dst = &n.peers[n.p.pickDest(&wp.rt, n.i)]
	a.Kernel().ScheduleArg(n.p.latency(n.i, wp.dst.i), n.deliver, wp)
	n.wp = nil
}

// runStores runs p's test system with one activity per node over a
// store of pending parcels, the activity made by mk: the oracles'
// driver. It seeds the same parcels and gathers the same statistics as
// runTestSystem, and takes the queue mean from the stores' time-weighted
// lengths.
func runStores(p Params, mk func(*storeNode) simtest.Activity) (SystemResult, error) {
	k := sim.NewKernel()
	nodes := make([]nodeStats, p.Nodes)
	tns := make([]testNode, p.Nodes)
	sns := make([]storeNode, p.Nodes)
	deliver := func(x any) {
		wp := x.(*workParcel)
		sns[wp.dst.i].queue.Put(wp)
	}
	for i := range sns {
		tns[i] = testNode{p: &p, k: k, i: i, ns: &nodes[i], peers: tns}
		nodes[i].busy.Set(0, 0)
		sns[i] = storeNode{testNode: &tns[i], queue: simtest.NewStore[*workParcel](k), deliver: deliver}
	}
	parcels := make([]workParcel, p.Nodes*p.Parallelism)
	for i := 0; i < p.Nodes; i++ {
		for j := 0; j < p.Parallelism; j++ {
			wp := &parcels[i*p.Parallelism+j]
			p.seedParcel(wp, i, j)
			sns[i].queue.Put(wp)
		}
	}
	env := simtest.New(k)
	for i := range sns {
		env.Spawn("test-"+strconv.Itoa(i), mk(&sns[i]))
	}
	if err := k.Run(p.Horizon); err != nil {
		return SystemResult{}, err
	}
	r := gather(nodes, p.Horizon)
	var queueSum float64
	for i := range sns {
		queueSum += sns[i].queue.Len.Mean(p.Horizon)
	}
	r.QueueMean = queueSum / float64(p.Nodes)
	return r, nil
}

// pieceNode runs a storeNode's parcels piece by piece.
type pieceNode struct {
	*storeNode
	state int
	nops  int
	rem   bool
}

// pieceNode states.
const (
	pnFetch      = iota // take (or wait for) the next pending parcel
	pnAssimDone         // assimilation overhead paid
	pnAccessDone        // migrated access performed
	pnSegment           // draw the next execution segment
	pnUsefulDone        // useful-ops run finished
	pnLocalDone         // local memory access finished
	pnCreateDone        // parcel-creation overhead paid: ship
)

// busyFor marks the node busy for d cycles and parks until they elapse,
// resuming in state next (which starts by marking the node idle again).
func (n *pieceNode) busyFor(a *simtest.ActCtx, d float64, next int) {
	n.ns.busy.Add(a.Now(), 1)
	n.state = next
	a.Wait(d)
}

func (n *pieceNode) Step(a *simtest.ActCtx) {
	p, ns := n.p, n.ns
	for {
		switch n.state {
		case pnFetch:
			wp, ok := n.queue.GetAct(a)
			if !ok {
				return
			}
			n.wp = wp
			if p.Overhead.AssimilateCycles > 0 {
				n.busyFor(a, p.Overhead.AssimilateCycles, pnAssimDone)
				return
			}
			if n.postAssim(a) {
				return
			}
		case pnAssimDone:
			ns.busy.Add(a.Now(), -1)
			if n.postAssim(a) {
				return
			}
		case pnAccessDone:
			ns.busy.Add(a.Now(), -1)
			ns.ops++
			n.state = pnSegment
		case pnSegment:
			n.nops, n.rem = segment(&n.wp.st, p)
			if n.nops > 0 {
				n.busyFor(a, float64(n.nops), pnUsefulDone)
				return
			}
			if n.afterUseful(a) {
				return
			}
		case pnUsefulDone:
			ns.busy.Add(a.Now(), -1)
			ns.ops += int64(n.nops)
			if n.afterUseful(a) {
				return
			}
		case pnLocalDone:
			ns.busy.Add(a.Now(), -1)
			ns.ops++
			n.state = pnSegment
		case pnCreateDone:
			ns.busy.Add(a.Now(), -1)
			n.ship(a)
			n.state = pnFetch
		}
	}
}

// postAssim performs the access that caused the migration, if any.
// Reports whether the node parked.
func (n *pieceNode) postAssim(a *simtest.ActCtx) bool {
	if n.wp.pendingAccess {
		n.wp.pendingAccess = false
		n.busyFor(a, n.p.MemCycles, pnAccessDone)
		return true
	}
	n.state = pnSegment
	return false
}

// afterUseful performs the drawn access: local (busy the memory bank) or
// remote (pay the creation overhead, then ship). Reports whether the node
// parked.
func (n *pieceNode) afterUseful(a *simtest.ActCtx) bool {
	if !n.rem {
		n.busyFor(a, n.p.MemCycles, pnLocalDone)
		return true
	}
	if n.p.Overhead.CreateCycles > 0 {
		n.busyFor(a, n.p.Overhead.CreateCycles, pnCreateDone)
		return true
	}
	n.ship(a)
	n.state = pnFetch
	return false
}

// runVisits runs p's test system with the one-event-per-visit oracle.
func runVisits(p Params) (SystemResult, error) {
	return runStores(p, func(n *storeNode) simtest.Activity { return n })
}

// runPieces runs p's test system with the piecewise oracle.
func runPieces(p Params) (SystemResult, error) {
	return runStores(p, func(n *storeNode) simtest.Activity { return &pieceNode{storeNode: n} })
}

// runHops runs p's test system as the package does: one event per hop.
func runHops(p Params) (SystemResult, error) {
	return runTestSystem(p, &runState{})
}

// firstPieceEnds returns the times the first n pieces of node 0's first
// parcel end when that parcel never leaves (RemoteFrac 0 or one node),
// split into the ends of useful runs and of local accesses, redrawing
// the parcel's stream as the model does. ship is the end of the
// parcel's first visit, when it first ships, or 0 if it never does
// within those pieces.
func firstPieceEnds(p Params, n int) (useful, local []float64, ship float64) {
	var st rng.Stream
	st.Reseed(p.Seed, 2000)
	t := p.Overhead.AssimilateCycles
	for len(useful) < n || len(local) < n {
		nops, remote := segment(&st, &p)
		if nops > 0 {
			t += float64(nops)
			useful = append(useful, t)
		}
		if remote && ship == 0 {
			ship = t + p.Overhead.CreateCycles
		}
		t += p.MemCycles
		local = append(local, t)
	}
	return useful[:n], local[:n], ship
}

// exactPoint is a parameter point where no two parcels can land on one
// node at one instant, so every formulation must agree bit for bit.
type exactPoint struct {
	name string
	p    Params
}

// exactPoints are the points without ties: no remote accesses on six
// nodes, a single node, and two nodes with remote traffic, where a
// node's parcels all come from the other node, which ships one per busy
// period. On two nodes the migrated access, the creation overhead and
// shipping are checked exactly too.
func exactPoints() []exactPoint {
	var points []exactPoint
	base := DefaultParams()
	base.Nodes = 6
	base.RemoteFrac = 0
	for _, par := range []int{1, 4} {
		p := base
		p.Parallelism = par
		points = append(points, exactPoint{"remote0-hw", p})
		p.Overhead = parcel.SoftwareOnly()
		points = append(points, exactPoint{"remote0-sw", p})
	}
	one := DefaultParams()
	one.Nodes = 1
	one.Parallelism = 3
	one.RemoteFrac = 0.5
	points = append(points, exactPoint{"one-node", one})
	one.Overhead = parcel.CostModel{}
	one.Latency = 0
	points = append(points, exactPoint{"one-node-free", one})
	two := DefaultParams()
	two.Nodes = 2
	for _, par := range []int{1, 3} {
		for _, rf := range []float64{0.3, 1} {
			p := two
			p.Parallelism, p.RemoteFrac = par, rf
			points = append(points, exactPoint{"two-node-hw", p})
			p.Overhead = parcel.SoftwareOnly()
			points = append(points, exactPoint{"two-node-sw", p})
		}
	}
	return points
}

// exactHorizons are the horizons each exact point runs at, including
// horizons that fall exactly on the end of a useful run or of a local
// access, where the piece ending on the horizon must count, and on the
// end of the first visit, where the parcel must still ship. On two nodes
// the first parcel leaves at its first remote access; there the later
// piece ends are plain horizons.
func exactHorizons(p Params) []float64 {
	useful, local, ship := firstPieceEnds(p, 40)
	hs := []float64{1, 2, 3, 997.5, 20000, useful[0], local[0], useful[39], local[39]}
	if ship > 0 {
		hs = append(hs, ship)
	}
	return hs
}

// matchExactly runs got and want at every exact point and horizon and
// fails t where their results differ in any bit.
func matchExactly(t *testing.T, got, want func(Params) (SystemResult, error)) {
	t.Helper()
	for _, pt := range exactPoints() {
		for _, h := range exactHorizons(pt.p) {
			p := pt.p
			p.Horizon = h
			w, err := want(p)
			if err != nil {
				t.Fatal(err)
			}
			g, err := got(p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s P=%d horizon %g:\n got  %+v\n want %+v",
					pt.name, p.Parallelism, h, g, w)
			}
		}
	}
}

// TestVisitMatchesPiecesExactly: where no two parcels can land on one
// node at one instant, the one-event-per-visit oracle and the piecewise
// one give identical results at every horizon.
func TestVisitMatchesPiecesExactly(t *testing.T) {
	matchExactly(t, runVisits, runPieces)
}

// TestHopMatchesVisitExactly: where no two parcels can land on one node
// at one instant, the closed-form node — one event per hop, busy time
// and queue wait credited at booking — gives results identical to the
// one-event-per-visit oracle at every horizon: ops, remote accesses,
// per-node idle fractions and the queue mean, bit for bit. A two-node
// point at non-integral latency and memory time, over 20 seeds, checks
// that a hop lands where the oracle's does, at the visit's end plus the
// latency, to the last bit.
func TestHopMatchesVisitExactly(t *testing.T) {
	matchExactly(t, runHops, runVisits)
	p := DefaultParams()
	p.Nodes, p.Parallelism, p.Latency, p.MemCycles, p.Horizon = 2, 1, 203.13, 9.91, 20000
	for seed := uint64(0); seed < 20; seed++ {
		p.Seed = seed
		w, err := runVisits(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := runHops(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("non-integral two-node point, seed %d:\n got  %+v\n want %+v", seed, g, w)
		}
	}
}

// TestVisitAgreesWithPiecesStatistically holds the package's hop model
// to the piecewise oracle where parcels migrate and the two trajectories
// part at the first same-time tie. At each point both run the same seeds; the
// means over the seeds of the test system's ops (the control system is
// common, so they stand for Fig. 11's ratio), idle fraction and queue
// mean must agree within the stated tolerances. Over 32 seeds at latency
// 10, where ties are most frequent, the paired per-seed difference has a
// mean indistinguishable from zero and a spread of 0.6% in ops and 0.003
// in idle fraction, so the ops tolerance is five standard errors of a
// four-seed mean and the idle tolerance more than six.
func TestVisitAgreesWithPiecesStatistically(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison of two models")
	}
	const (
		seeds    = 4
		opsTol   = 0.015 // relative
		idleTol  = 0.01  // absolute
		queueTol = 0.05  // relative, plus 0.02 absolute for short queues
	)
	mk := func(lat float64, par int) Params {
		p := DefaultParams()
		p.Nodes = 12
		p.Latency = lat
		p.Parallelism = par
		p.Horizon = 200000
		return p
	}
	type point struct {
		name string
		p    Params
	}
	var points []point
	for _, lat := range []float64{10, 200, 2000} {
		for _, par := range []int{1, 8} {
			points = append(points, point{"flat", mk(lat, par)})
		}
	}
	sw := mk(200, 8)
	sw.Overhead = parcel.SoftwareOnly()
	points = append(points, point{"software", sw})
	hot := mk(200, 8)
	hot.Hotspot = 0.3
	points = append(points, point{"hotspot", hot})
	ring := mk(100, 4)
	ring.Net = network.NewHop(network.Ring{N: ring.Nodes}, 50, 20)
	points = append(points, point{"ring", ring})
	for _, pt := range points {
		var ops, idle, queue [2]float64
		for s := 0; s < seeds; s++ {
			p := pt.p
			p.Seed = uint64(100 + s)
			for m, run := range []func(Params) (SystemResult, error){runPieces, runHops} {
				r, err := run(p)
				if err != nil {
					t.Fatal(err)
				}
				ops[m] += float64(r.Ops) / seeds
				idle[m] += r.IdleFrac / seeds
				queue[m] += r.QueueMean / seeds
			}
		}
		id := fmt.Sprintf("%s L=%g P=%d", pt.name, pt.p.Latency, pt.p.Parallelism)
		if math.Abs(ops[1]-ops[0]) > opsTol*ops[0] {
			t.Errorf("%s: ops %g, pieces %g", id, ops[1], ops[0])
		}
		if math.Abs(idle[1]-idle[0]) > idleTol {
			t.Errorf("%s: idle %g, pieces %g", id, idle[1], idle[0])
		}
		if math.Abs(queue[1]-queue[0]) > queueTol*queue[0]+0.02 {
			t.Errorf("%s: queue %g, pieces %g", id, queue[1], queue[0])
		}
		t.Logf("%s: ops %.6g/%.6g idle %.4f/%.4f queue %.4f/%.4f", id, ops[1], ops[0], idle[1], idle[0], queue[1], queue[0])
	}
}
