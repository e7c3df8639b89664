package parcelsys

// The test system's node plans a parcel's whole visit when it fetches the
// parcel and spends one kernel event on it. pieceNode below is the model
// as it was written before that: one kernel event per piece of the visit
// (assimilation, migrated access, each useful run, each local access,
// creation). It is the reference the visit model is held to. The two
// draw the same numbers from every parcel's streams and credit the same
// pieces by the horizon, so they differ only where the order of
// same-time events matters: which of two parcels landing on one node at
// one instant is queued first. Without remote traffic no parcel ever
// moves, and on two nodes no two parcels can land on one node at one
// instant, so there the two runs must be identical bit for bit;
// elsewhere they must agree statistically.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/rng"
	"repro/internal/sim"
)

// pieceNode runs a testNode's parcels piece by piece.
type pieceNode struct {
	*testNode
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
func (n *pieceNode) busyFor(a *sim.ActCtx, d float64, next int) {
	n.ns.busy.Add(a.Now(), 1)
	n.state = next
	a.Wait(d)
}

func (n *pieceNode) Step(a *sim.ActCtx) {
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
func (n *pieceNode) postAssim(a *sim.ActCtx) bool {
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
func (n *pieceNode) afterUseful(a *sim.ActCtx) bool {
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

// runPieces runs p's test system with the piecewise reference nodes.
func runPieces(p Params) (SystemResult, error) {
	return runTestPar(p, &runState{}, func(n *testNode) sim.Activity {
		return &pieceNode{testNode: n}
	})
}

// runVisits runs p's test system with the one-event visit nodes.
func runVisits(p Params) (SystemResult, error) {
	return runTestPar(p, &runState{}, nil)
}

// firstPieceEnds returns the times the first n pieces of node 0's first
// parcel end when that parcel never leaves (RemoteFrac 0 or one node),
// split into the ends of useful runs and of local accesses, redrawing
// the parcel's stream as the model does.
func firstPieceEnds(p Params, n int) (useful, local []float64) {
	var st rng.Stream
	st.Reseed(p.Seed, 2000)
	t := p.Overhead.AssimilateCycles
	for len(useful) < n || len(local) < n {
		nops, _ := segment(&st, &p)
		if nops > 0 {
			t += float64(nops)
			useful = append(useful, t)
		}
		t += p.MemCycles
		local = append(local, t)
	}
	return useful[:n], local[:n]
}

// TestVisitMatchesPiecesExactly: where no parcel ever migrates — no
// remote accesses, or a single node — the visit model and the piecewise
// reference give identical results at every horizon, including horizons
// that fall exactly on the end of a useful run or of a local access,
// where the piece ending on the horizon must count. The same holds on two
// nodes with remote traffic: a node's parcels all come from the other
// node, which ships one per busy period, so no two land at one instant.
// There the migrated access, the creation overhead and shipping are
// checked exactly too.
func TestVisitMatchesPiecesExactly(t *testing.T) {
	type point struct {
		name string
		p    Params
	}
	var points []point
	base := DefaultParams()
	base.Nodes = 6
	base.RemoteFrac = 0
	for _, par := range []int{1, 4} {
		p := base
		p.Parallelism = par
		points = append(points, point{"remote0-hw", p})
		p.Overhead = parcel.SoftwareOnly()
		points = append(points, point{"remote0-sw", p})
	}
	one := DefaultParams()
	one.Nodes = 1
	one.Parallelism = 3
	one.RemoteFrac = 0.5
	points = append(points, point{"one-node", one})
	one.Overhead = parcel.CostModel{}
	one.Latency = 0
	points = append(points, point{"one-node-free", one})
	two := DefaultParams()
	two.Nodes = 2
	for _, par := range []int{1, 3} {
		for _, rf := range []float64{0.3, 1} {
			p := two
			p.Parallelism, p.RemoteFrac = par, rf
			points = append(points, point{"two-node-hw", p})
			p.Overhead = parcel.SoftwareOnly()
			points = append(points, point{"two-node-sw", p})
		}
	}
	for _, pt := range points {
		// On two nodes the first parcel leaves at its first remote
		// access; there the later piece ends are plain horizons.
		useful, local := firstPieceEnds(pt.p, 40)
		horizons := []float64{1, 2, 3, 997.5, 20000, useful[0], local[0], useful[39], local[39]}
		for _, h := range horizons {
			p := pt.p
			p.Horizon = h
			want, err := runPieces(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runVisits(p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s P=%d horizon %g:\n visit  %+v\n pieces %+v",
					pt.name, p.Parallelism, h, got, want)
			}
		}
	}
}

// TestVisitAgreesWithPiecesStatistically holds the visit model to the
// piecewise reference where parcels migrate and the two trajectories part
// at the first same-time tie. At each point both run the same seeds; the
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
			for m, run := range []func(Params) (SystemResult, error){runPieces, runVisits} {
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
