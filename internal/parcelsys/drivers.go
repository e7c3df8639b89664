package parcelsys

// The drivers of both systems. Each system runs on a sim.Kernel of its
// own and keeps its state in closed form, so the kernel only orders
// events:
//
//   - Test system: each node is a FIFO server held in closed form as the
//     time it next falls free (testNode). Each parcel draws its route
//     from its own stream (workParcel.rt), and a landing books the visit
//     and sends the parcel on, to land at the destination node when the
//     visit ends plus the one-way latency.
//
//   - Control system: each node's memory bank and CPU are held in closed
//     form (ctrlNode), and each thread draws from its own stream. A
//     thread's events are its bank arrivals: a local access arrives at
//     its own bank when its useful run ends, and a remote access sends
//     its request to land at the destination bank one-way latency after
//     the run ends. The destination books the next slot and sends the
//     reply, which leaves when the service ends and travels the latency
//     back.
//
// The systems share no mutable state, so running them side by side
// (RunParallel 2 and above) gives the results of running them one after
// the other; the invariance tests pin this.

import (
	"repro/internal/rng"
	"repro/internal/sim"
)

// runTestSystem simulates the split-transaction parcel system: one event
// per hop, the parcel's landing (testNode.land). The initial parcels
// land at time 0, in order, at setup.
func runTestSystem(p Params, rs *runState) (SystemResult, error) {
	k := kernel(&rs.testK)
	rs.testStats = slab(rs.testStats, p.Nodes)
	rs.testNodes = slab(rs.testNodes, p.Nodes)
	nodes, tns := rs.testStats, rs.testNodes
	for i := range tns {
		tns[i] = testNode{p: &p, mix: newOpMix(&p), k: k, i: i, ns: &nodes[i], peers: tns}
		nodes[i] = nodeStats{}
		nodes[i].busy.Set(0, 0)
	}
	// Seed Parallelism parcels at every node: the paper's "average number
	// of parcels per processor".
	rs.parcels = slab(rs.parcels, p.Nodes*p.Parallelism)
	for i := 0; i < p.Nodes; i++ {
		for j := 0; j < p.Parallelism; j++ {
			wp := &rs.parcels[i*p.Parallelism+j]
			p.seedParcel(wp, i, j)
			tns[i].land(wp)
		}
	}
	if err := k.Run(p.Horizon); err != nil {
		return SystemResult{}, err
	}
	r := gather(nodes, p.Horizon)
	var queueSum float64
	for i := range nodes {
		queueSum += nodes[i].wait / p.Horizon
	}
	r.QueueMean = queueSum / float64(p.Nodes)
	return r, nil
}

// ctrlNode is one control processor: its memory bank and its CPU, both
// in closed form.
//
// The bank is a FIFO single server with a deterministic service time, so
// it is fully described by the time its last booked service ends.
//
// The CPU is granted to one thread at a time, first come first served.
// A thread's hold is its useful run, followed for a local access by the
// bank wait and the service, so the CPU's release is known at the grant
// for a remote access and at the bank arrival for a local one; held marks
// the stretch in between. Threads that finish an access while the CPU is
// held, or while others wait ahead of them, queue on the node's FIFO,
// which the release drains. With one thread per node nothing ever waits.
type ctrlNode struct {
	p     *Params
	k     *sim.Kernel // the system's kernel
	i     int
	ns    *nodeStats
	peers []ctrlNode // every node of the run, indexed by node
	bank  sim.Time   // end of the last booked bank service
	cpu   sim.Time   // end of the last CPU hold whose end is known
	held  bool       // a local access holds the CPU until its bank arrival
	// head and tail link the threads waiting for the CPU through
	// ctrlThread.next.
	head, tail *ctrlThread
	// rejoin is the thread whose local access ends at rejoinAt and which
	// queues for the CPU then, when the node runs several threads. There
	// is at most one: the node's next bank arrival comes no earlier and
	// settles it first.
	rejoin   *ctrlThread
	rejoinAt sim.Time
}

// ctrlThread is one blocking control thread, and also its own memory
// request (a thread has at most one in flight). A cycle draws a segment,
// holds the CPU for the useful ops, then performs the access: a blocking
// remote round trip, during which the thread has released the CPU and
// idles (the paper's third processor state), or a local access that
// holds the CPU through the bank wait and the service.
type ctrlThread struct {
	st     rng.Stream
	n      *ctrlNode // home node
	dst    *ctrlNode // the remote access's node
	next   *ctrlThread
	nops   int
	remote bool
}

// book reserves the bank's next service slot for a request arriving now
// and returns the slot's start.
func (n *ctrlNode) book(service sim.Time) sim.Time {
	start := max(n.k.Now(), n.bank)
	n.bank = start + service
	return start
}

// join queues thread t, whose next segment is drawn, for the CPU at time
// at: it is granted then, or when the CPU's known hold ends, unless a
// local access holds the CPU or others wait ahead of it.
func (n *ctrlNode) join(t *ctrlThread, at sim.Time) {
	if n.held || n.head != nil {
		t.next = nil
		if n.tail == nil {
			n.head = t
		} else {
			n.tail.next = t
		}
		n.tail = t
		return
	}
	n.grant(t, max(at, n.cpu))
}

// settle queues the thread whose local access has ended by now. It runs
// first in every event that touches the CPU, so a thread ending a local
// access queues ahead of a reply landing at the same instant.
func (n *ctrlNode) settle() {
	if t := n.rejoin; t != nil && n.rejoinAt <= n.k.Now() {
		n.rejoin = nil
		n.join(t, n.rejoinAt)
	}
}

// dispatch grants the waiting threads in order, each when the previous
// hold ends, until one holds the CPU with a local access.
func (n *ctrlNode) dispatch() {
	for n.head != nil && !n.held {
		t := n.head
		if n.head = t.next; n.head == nil {
			n.tail = nil
		}
		n.grant(t, n.cpu)
	}
}

// grant gives thread t the CPU at time g ≥ now and books its useful run,
// credited in closed form: busy time clipped to the horizon, ops only if
// the run ends by it. A remote access releases the CPU when the run ends
// and sends the request to land at the destination bank one-way latency
// later. A local access keeps the CPU and arrives at its own bank when
// the run ends.
func (n *ctrlNode) grant(t *ctrlThread, g sim.Time) {
	p, ns := n.p, n.ns
	h := p.Horizon
	end := g + float64(t.nops)
	if g < h && t.nops > 0 {
		ns.busy.Add(g, 1)
		ns.busy.Add(min(end, h), -1)
	}
	if t.remote {
		n.cpu = end
	} else {
		n.held = true
	}
	if end > h {
		return
	}
	ns.ops += int64(t.nops)
	if !t.remote {
		n.k.ScheduleArgAt(end, ctrlArrive, t)
		return
	}
	t.dst = &n.peers[p.pickDest(&t.st, n.i)]
	n.k.ScheduleArgAt(end+p.latency(n.i, t.dst.i), ctrlRequest, t)
}

// ctrlArrive is a local access's one event: the thread arrives at its
// own bank. It books the service, credited like a useful run, and the
// CPU falls free when the service ends. The thread then draws its next
// segment and returns to the back of the CPU queue. Alone on its node it
// is the only candidate, so it is granted at the service's end at once.
// With company, the threads already waiting are granted in order from
// the service's end, and a reply landing before that end goes ahead of
// it, so it queues at the end: in the first event to touch the CPU from
// then on, or in an event of its own.
func ctrlArrive(x any) {
	t := x.(*ctrlThread)
	n := t.n
	p, ns := n.p, n.ns
	h := p.Horizon
	n.settle()
	start := n.book(p.MemCycles)
	end := n.bank
	if start < h {
		ns.busy.Add(start, 1)
		ns.busy.Add(min(end, h), -1)
	}
	if end <= h {
		ns.ops++
	}
	n.held, n.cpu = false, end
	t.nops, t.remote = segment(&t.st, p)
	if p.ControlThreads <= 1 {
		n.grant(t, end)
		return
	}
	n.dispatch()
	if end <= h {
		n.rejoin, n.rejoinAt = t, end
		n.k.ScheduleArgAt(end, ctrlRejoin, n)
	}
}

// ctrlRejoin queues the thread whose local access ends now, unless an
// earlier event at this instant already has.
func ctrlRejoin(x any) { x.(*ctrlNode).settle() }

// ctrlRequest runs when a remote request arrives at the destination
// bank: it books the next slot and sends the reply, which leaves when the
// service ends and travels the one-way latency back.
func ctrlRequest(x any) {
	t := x.(*ctrlThread)
	b, p := t.dst, t.n.p
	queued := b.book(p.MemCycles) - b.k.Now()
	b.k.ScheduleArg(queued+p.MemCycles+p.latency(b.i, t.n.i), ctrlReply, t)
}

// ctrlReply runs when the reply lands at the requester: the round trip
// is over, the access completes, and the thread draws its next segment
// and queues for the CPU.
func ctrlReply(x any) {
	t := x.(*ctrlThread)
	n := t.n
	n.ns.rem++
	n.ns.ops++
	t.nops, t.remote = segment(&t.st, n.p)
	n.settle()
	n.join(t, n.k.Now())
}

// runControlSystem simulates the blocking message-passing system. Every
// thread draws its first segment and queues for its node's CPU at time
// 0, thread 0 of each node first.
func runControlSystem(p Params, rs *runState) (SystemResult, error) {
	k := kernel(&rs.ctrlK)
	rs.ctrlStats = slab(rs.ctrlStats, p.Nodes)
	rs.ctrlNodes = slab(rs.ctrlNodes, p.Nodes)
	nodes, cns := rs.ctrlStats, rs.ctrlNodes
	for i := range cns {
		cns[i] = ctrlNode{p: &p, k: k, i: i, ns: &nodes[i], peers: cns}
		nodes[i] = nodeStats{}
		nodes[i].busy.Set(0, 0)
	}
	threads := max(p.ControlThreads, 1)
	rs.threads = slab(rs.threads, p.Nodes*threads)
	for i := range cns {
		for j := 0; j < threads; j++ {
			t := &rs.threads[j*p.Nodes+i]
			*t = ctrlThread{n: &cns[i]}
			t.st.Reseed(p.Seed, 1000+uint64(i)+uint64(j)*uint64(p.Nodes))
			t.nops, t.remote = segment(&t.st, &p)
			cns[i].join(t, 0)
		}
	}
	if err := k.Run(p.Horizon); err != nil {
		return SystemResult{}, err
	}
	return gather(nodes, p.Horizon), nil
}
