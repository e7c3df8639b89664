package parcelsys

// The control system's thread is a closed-form state machine driven by
// its bank arrivals: a local access costs one event, a remote access two
// (the request and the reply), and a node's CPU is a FIFO of threads
// kept in the model. This file keeps the formulation it replaced as the
// oracle: an activity per thread on a FIFO resource CPU, waiting for its
// reply on a signal (the test-only activity layer, internal/sim/simtest),
// with an event for every useful run, bank wait, service and wake-up.
//
// Both draw the same numbers from every thread's stream and book every
// bank at the same instants, and both queue a thread that ends a local
// access ahead of a reply landing at that instant. So they differ only
// where the order of other same-time events matters: which of two
// requests reaching one bank at one instant is served first. Without
// remote traffic, or on one node, no two requests meet at a bank. With
// remote traffic they meet only when two histories sum the same whole
// cycles, memory times and latencies, which at integral times happens
// all the time and at the non-integral points below, with latencies
// long against the memory time, does not happen within the horizons
// run. There the runs must be identical bit for bit; elsewhere they must
// agree statistically.

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

// actThread is one blocking control thread as an activity state
// machine, and also its own memory request. One cycle: draw a segment,
// acquire the CPU, hold it for the useful ops, then perform the access —
// a remote round trip (the thread releases the CPU and waits on its
// reply signal) or a local access holding the CPU through the bank wait
// and the service.
type actThread struct {
	p     *Params
	st    rng.Stream
	ns    *nodeStats
	i     int
	cpu   *simtest.Resource
	banks []ctrlNode      // every node's bank, indexed by node
	reply *simtest.Signal // fired by actReply

	state  int
	nops   int
	remote bool
	dst    int // the remote access's node
}

// actThread states.
const (
	atSegment    = iota // draw the next segment, acquire the processor
	atHoldCPU           // processor granted: run the useful ops
	atUseful            // useful-ops wait finished: perform the access
	atReplied           // remote reply arrived: transaction complete
	atLocalStart        // local bank slot reached: the access begins
	atLocalDone         // local access finished
)

// Step runs the thread until it must wait; it loops forever (the horizon
// kill ends it).
func (t *actThread) Step(a *simtest.ActCtx) {
	p, ns := t.p, t.ns
	for {
		switch t.state {
		case atSegment:
			t.nops, t.remote = segment(&t.st, p)
			t.state = atHoldCPU
			if !t.cpu.Acquire(a, 1) {
				return
			}
		case atHoldCPU:
			t.state = atUseful
			if t.nops > 0 {
				ns.busy.Add(a.Now(), 1)
				a.Wait(float64(t.nops))
				return
			}
		case atUseful:
			if t.nops > 0 {
				ns.busy.Add(a.Now(), -1)
				ns.ops += int64(t.nops)
			}
			if t.remote {
				t.cpu.Release(1)
				t.dst = p.pickDest(&t.st, t.i)
				t.reply.Reset()
				t.state = atReplied
				a.Kernel().ScheduleArg(p.latency(t.i, t.dst), actRequest, t)
				if !t.reply.WaitAct(a) {
					return
				}
				continue
			}
			t.state = atLocalStart
			if start := t.banks[t.i].book(p.MemCycles); start > a.Now() {
				a.Wait(start - a.Now())
				return
			}
		case atLocalStart:
			ns.busy.Add(a.Now(), 1)
			t.state = atLocalDone
			a.Wait(p.MemCycles)
			return
		case atReplied:
			ns.rem++
			ns.ops++ // the access itself is a completed operation
			t.state = atSegment
		case atLocalDone:
			ns.busy.Add(a.Now(), -1)
			t.cpu.Release(1)
			ns.ops++
			t.state = atSegment
		}
	}
}

// actRequest books the destination bank and sends the reply back.
func actRequest(x any) {
	t := x.(*actThread)
	b := &t.banks[t.dst]
	queued := b.book(t.p.MemCycles) - b.k.Now()
	b.k.ScheduleArg(queued+t.p.MemCycles+t.p.latency(t.dst, t.i), actReply, t)
}

// actReply wakes the requester: the round trip is over.
func actReply(x any) { x.(*actThread).reply.Trigger() }

// runControlActivity runs p's control system with one activity per
// thread: the oracle's driver. It seeds the same streams and gathers the
// same statistics as runControlSystem.
func runControlActivity(p Params) (SystemResult, error) {
	k := sim.NewKernel()
	env := simtest.New(k)
	nodes := make([]nodeStats, p.Nodes)
	banks := make([]ctrlNode, p.Nodes)
	cpus := make([]*simtest.Resource, p.Nodes)
	for i := range banks {
		banks[i] = ctrlNode{k: k, i: i}
		cpus[i] = simtest.NewResource(k, 1)
		nodes[i].busy.Set(0, 0)
	}
	threads := max(p.ControlThreads, 1)
	for i := range banks {
		for j := 0; j < threads; j++ {
			name := "ctrl-" + strconv.Itoa(i) + "." + strconv.Itoa(j)
			th := &actThread{p: &p, i: i, ns: &nodes[i], cpu: cpus[i], banks: banks, reply: &simtest.Signal{}}
			th.st.Reseed(p.Seed, 1000+uint64(i)+uint64(j)*uint64(p.Nodes))
			env.Spawn(name, th)
		}
	}
	if err := k.Run(p.Horizon); err != nil {
		return SystemResult{}, err
	}
	return gather(nodes, p.Horizon), nil
}

// runControl runs p's control system as the package does.
func runControl(p Params) (SystemResult, error) {
	return runControlSystem(p, &runState{})
}

// ctrlExactPoints are control points where no two requests meet at a
// bank at one instant: no remote traffic on six nodes, a single node,
// and remote traffic at non-integral latencies and memory times, flat,
// hotspot and on a ring. Each runs with one thread per node and with
// three. (At a latency of 10.37 cycles against 9.91 of memory time,
// requests do meet at banks within 20 000 cycles in about half the
// seeds.)
func ctrlExactPoints() []exactPoint {
	var points []exactPoint
	base := DefaultParams()
	base.Horizon = 20000
	local := base
	local.Nodes = 6
	local.RemoteFrac = 0
	points = append(points, exactPoint{"remote0", local})
	one := base
	one.Nodes = 1
	one.MemCycles = 7
	points = append(points, exactPoint{"one-node", one})
	flat := base
	flat.Nodes = 9
	flat.Latency = 203.13
	flat.MemCycles = 9.91
	flat.RemoteFrac = 0.4
	points = append(points, exactPoint{"flat", flat})
	flat.Hotspot = 0.3
	points = append(points, exactPoint{"hotspot", flat})
	ring := base
	ring.Nodes = 8
	ring.MemCycles = 3.3
	ring.Net = network.NewHop(network.Ring{N: ring.Nodes}, 61.7, 13.1)
	points = append(points, exactPoint{"ring", ring})
	var out []exactPoint
	for _, pt := range points {
		for _, th := range []int{1, 3} {
			pt.p.ControlThreads = th
			out = append(out, pt)
		}
	}
	return out
}

// TestControlMatchesActivityExactly: at points where no two threads meet
// at a bank or a CPU at one instant, the closed-form control system —
// one event per local access, two per remote one, an in-model CPU queue
// — gives results identical to the activity oracle at several horizons:
// ops, remote accesses and per-node idle fractions, bit for bit.
func TestControlMatchesActivityExactly(t *testing.T) {
	for _, pt := range ctrlExactPoints() {
		for _, h := range []float64{1, 17, 997.5, 3001, 20000} {
			p := pt.p
			p.Horizon = h
			want, err := runControlActivity(p)
			if err != nil {
				t.Fatal(err)
			}
			if h == 20000 && (want.Ops == 0 || (p.RemoteFrac > 0 && p.Nodes > 1 && want.RemoteAccesses == 0)) {
				t.Fatalf("%s threads=%d: degenerate oracle run %+v", pt.name, p.ControlThreads, want)
			}
			got, err := runControl(p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s L=%g threads=%d horizon %g:\n got  %+v\n want %+v",
					pt.name, p.Latency, p.ControlThreads, h, got, want)
			}
		}
	}
}

// TestControlAgreesWithActivityStatistically holds the closed-form
// control system to the activity oracle at integral latencies and memory
// times, where same-time ties are frequent and the two trajectories part
// at the first one. At each point both run the same seeds; the means
// over the seeds of ops and idle fraction must agree within the
// tolerances the test system's hop model is held to against its own
// oracle (TestVisitAgreesWithPiecesStatistically), fixed before this
// comparison was first run.
func TestControlAgreesWithActivityStatistically(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison of two models")
	}
	const (
		seeds   = 4
		opsTol  = 0.015 // relative
		idleTol = 0.01  // absolute
	)
	mk := func(lat float64, threads int) Params {
		p := DefaultParams()
		p.Nodes = 12
		p.Latency = lat
		p.ControlThreads = threads
		p.Horizon = 100000
		return p
	}
	type point struct {
		name string
		p    Params
	}
	var points []point
	for _, lat := range []float64{10, 200} {
		for _, th := range []int{1, 4} {
			points = append(points, point{"flat", mk(lat, th)})
		}
	}
	hot := mk(10, 1)
	hot.Hotspot = 0.5
	hot.RemoteFrac = 0.6
	points = append(points, point{"hotspot", hot})
	ring := mk(20, 2)
	ring.Net = network.NewHop(network.Ring{N: ring.Nodes}, 10, 5)
	ring.Overhead = parcel.SoftwareOnly()
	points = append(points, point{"ring", ring})
	for _, pt := range points {
		var ops, idle [2]float64
		for s := 0; s < seeds; s++ {
			p := pt.p
			p.Seed = uint64(300 + s)
			for m, run := range []func(Params) (SystemResult, error){runControlActivity, runControl} {
				r, err := run(p)
				if err != nil {
					t.Fatal(err)
				}
				ops[m] += float64(r.Ops) / seeds
				idle[m] += r.IdleFrac / seeds
			}
		}
		id := fmt.Sprintf("%s L=%g threads=%d", pt.name, pt.p.Latency, pt.p.ControlThreads)
		if math.Abs(ops[1]-ops[0]) > opsTol*ops[0] {
			t.Errorf("%s: ops %g, activity %g", id, ops[1], ops[0])
		}
		if math.Abs(idle[1]-idle[0]) > idleTol {
			t.Errorf("%s: idle %g, activity %g", id, idle[1], idle[0])
		}
		t.Logf("%s: ops %.6g/%.6g idle %.5f/%.5f", id, ops[1], ops[0], idle[1], idle[0])
	}
}

// BenchmarkControlSystem times the control system alone at Fig. 11's
// node count and two latencies, with one thread per node and with four.
func BenchmarkControlSystem(b *testing.B) {
	for _, c := range []struct {
		lat     float64
		threads int
	}{{10, 1}, {200, 1}, {10, 4}} {
		p := DefaultParams()
		p.Latency = c.lat
		p.ControlThreads = c.threads
		p.Horizon = 20000
		b.Run(fmt.Sprintf("L%g/threads%d", c.lat, c.threads), func(b *testing.B) {
			var rs runState
			var ops int64
			for i := 0; i < b.N; i++ {
				r, err := runControlSystem(p, &rs)
				if err != nil {
					b.Fatal(err)
				}
				ops = r.Ops
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*ops), "ns/simop")
		})
	}
}
