package parcelsys

// The drivers of both systems. The nodes are sharded contiguously over a
// sim.ParKernel of max(1, min(RunParallel, Nodes)) shards, and every
// cross-node interaction goes through Kernel.Send with a delay of at
// least the conservative lookahead, the minimum one-way latency. One
// shard is the plain serial kernel. Two choices make the model
// partitionable, and neither depends on the partition, so the results are
// identical for every RunParallel (the invariance tests pin this):
//
//   - Test system: each node is a FIFO server held in closed form as the
//     time it next falls free (testNode), booked only on its own shard.
//     Each parcel draws its route from its own stream (workParcel.rt), and
//     a landing books the visit and Sends the parcel to the destination
//     node's shard, to land when the visit ends plus the one-way latency.
//
//   - Control system: each node's memory bank is a FIFO single server
//     with deterministic MemCycles service, held in closed form as the
//     time it next falls free (bank). Only the bank's own shard books it.
//     A remote access Sends the request (one-way latency) and idles the
//     processor; the bank's shard books the next slot and Sends the reply,
//     which leaves when the service ends and travels the latency back. A
//     local access books its slot and waits for it holding the processor.

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// partition returns the shard count and conservative lookahead of a run:
// max(1, min(RunParallel, Nodes)) shards, lookahead = the minimum one-way
// latency between distinct nodes (the flat Latency, or the topology
// minimum when Net is set — an O(Nodes²) scan done once per system).
func (p Params) partition() (parts int, lookahead float64, err error) {
	parts = p.RunParallel
	if parts > p.Nodes {
		parts = p.Nodes
	}
	if parts <= 1 {
		return 1, 0, nil // single shard: the lookahead is never consulted
	}
	lookahead = p.Latency
	if p.Net != nil {
		lookahead = math.Inf(1)
		for i := 0; i < p.Nodes; i++ {
			for j := 0; j < p.Nodes; j++ {
				if i != j && p.Net.Latency(i, j) < lookahead {
					lookahead = p.Net.Latency(i, j)
				}
			}
		}
	}
	if !(lookahead > 0) {
		return 0, 0, fmt.Errorf("parcelsys: RunParallel = %d needs a positive minimum one-way latency (the lookahead), got %g", p.RunParallel, lookahead)
	}
	return parts, lookahead, nil
}

// parKernel builds one system's partitioned kernel; node i lives on shard
// i*Parts()/Nodes.
func (p Params) parKernel() (*sim.ParKernel, error) {
	parts, look, err := p.partition()
	if err != nil {
		return nil, err
	}
	return sim.NewParKernel(parts, p.RunParallel, look), nil
}

// runTestPar simulates the split-transaction parcel system: one event
// per hop, the parcel's landing (testNode.land). The initial parcels
// land at time 0, in order, at setup.
func runTestPar(p Params, rs *runState) (SystemResult, error) {
	pk, err := p.parKernel()
	if err != nil {
		return SystemResult{}, err
	}
	rs.nodes = slab(rs.nodes, p.Nodes)
	rs.testNodes = slab(rs.testNodes, p.Nodes)
	nodes, tns := rs.nodes, rs.testNodes
	for i := range tns {
		part := i * pk.Parts() / p.Nodes
		tns[i] = testNode{p: &p, k: pk.Part(part), i: i, part: part, ns: &nodes[i], peers: tns}
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
	if err := pk.Run(p.Horizon); err != nil {
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

// bank is one node's memory bank in closed form: a FIFO single server
// with a deterministic service time is fully described by the time its
// last booked service ends. It is read and booked only on its own shard.
type bank struct {
	k    *sim.Kernel // the owning shard's kernel
	part int         // the owning shard
	free sim.Time    // end of the last booked service
}

// book reserves the bank's next service slot for a request arriving now
// and returns the slot's start.
func (b *bank) book(service sim.Time) sim.Time {
	start := b.k.Now()
	if b.free > start {
		start = b.free
	}
	b.free = start + service
	return start
}

// bankRequest runs on the destination bank's shard when a remote request
// arrives: it books the next slot and sends the reply, which leaves when
// the service ends and travels the one-way latency back. The delay is at
// least that latency, so it never undercuts the lookahead.
func bankRequest(x any) {
	t := x.(*parCtrlThread)
	b := &t.banks[t.dst]
	queued := b.book(t.p.MemCycles) - b.k.Now()
	b.k.Send(t.banks[t.i].part, queued+t.p.MemCycles+t.p.latency(t.dst, t.i), bankReply, t)
}

// bankReply runs on the requester's shard: the round trip is over.
func bankReply(x any) { x.(*parCtrlThread).reply.Trigger() }

// parCtrlThread is one blocking control thread as an activity state
// machine, and also its own memory request (a thread has at most one in
// flight). One cycle: draw a segment, hold the processor for the useful
// ops, then perform the access — a blocking remote round trip (the
// thread releases the processor and idles the whole time, the paper's
// third processor state) or a local access holding the processor.
type parCtrlThread struct {
	p     *Params
	st    rng.Stream
	ns    *nodeStats
	i     int
	cpu   *sim.Resource
	banks []bank      // every node's bank, indexed by node
	reply *sim.Signal // fired by bankReply

	state  int
	nops   int
	remote bool
	dst    int // the remote access's node
}

// parCtrlThread states.
const (
	pcSegment    = iota // draw the next segment, acquire the processor
	pcHoldCPU           // processor granted: run the useful ops
	pcUseful            // useful-ops wait finished: perform the access
	pcReplied           // remote reply arrived: transaction complete
	pcLocalStart        // local bank slot reached: the access begins
	pcLocalDone         // local access finished
)

// Step runs the thread until it must wait; it loops forever (the horizon
// kill ends it).
func (t *parCtrlThread) Step(a *sim.ActCtx) {
	p, ns := t.p, t.ns
	for {
		switch t.state {
		case pcSegment:
			t.nops, t.remote = segment(&t.st, p)
			t.state = pcHoldCPU
			if !t.cpu.Acquire1Act(a) {
				return
			}
		case pcHoldCPU:
			if t.nops > 0 {
				ns.busy.Add(a.Now(), 1)
				t.state = pcUseful
				a.Wait(float64(t.nops))
				return
			}
			t.state = pcUseful
		case pcUseful:
			if t.nops > 0 {
				ns.busy.Add(a.Now(), -1)
				ns.ops += int64(t.nops)
			}
			if t.remote {
				t.cpu.Release(1)
				t.dst = p.pickDest(&t.st, t.i)
				t.reply.Reset()
				t.state = pcReplied
				a.Kernel().Send(t.banks[t.dst].part, p.latency(t.i, t.dst), bankRequest, t)
				if !t.reply.WaitAct(a) {
					return
				}
				continue
			}
			t.state = pcLocalStart
			if start := t.banks[t.i].book(p.MemCycles); start > a.Now() {
				a.Wait(start - a.Now())
				return
			}
		case pcLocalStart:
			ns.busy.Add(a.Now(), 1)
			t.state = pcLocalDone
			a.Wait(p.MemCycles)
			return
		case pcReplied:
			ns.rem++
			ns.ops++ // the access itself is a completed operation
			t.state = pcSegment
		case pcLocalDone:
			ns.busy.Add(a.Now(), -1)
			t.cpu.Release(1)
			ns.ops++
			t.state = pcSegment
		}
	}
}

// runControlPar simulates the blocking message-passing system.
func runControlPar(p Params, rs *runState) (SystemResult, error) {
	pk, err := p.parKernel()
	if err != nil {
		return SystemResult{}, err
	}
	rs.names.grow(p.Nodes)
	rs.nodes = slab(rs.nodes, p.Nodes)
	rs.banks = slab(rs.banks, p.Nodes)
	nodes, banks := rs.nodes, rs.banks
	cpus := make([]*sim.Resource, p.Nodes)
	for i := 0; i < p.Nodes; i++ {
		part := i * pk.Parts() / p.Nodes
		banks[i] = bank{k: pk.Part(part), part: part}
		cpus[i] = sim.NewResource(banks[i].k, rs.names.cpu[i], 1, sim.FIFO)
		nodes[i] = nodeStats{}
		nodes[i].busy.Set(0, 0)
	}
	threads := p.ControlThreads
	if threads <= 0 {
		threads = 1
	}
	rs.threads = slab(rs.threads, p.Nodes*threads)
	ctrlNames := rs.ctrlNames(p.Nodes, threads)
	for i := 0; i < p.Nodes; i++ {
		for j := 0; j < threads; j++ {
			name := ctrlNames[j*p.Nodes+i]
			th := &rs.threads[j*p.Nodes+i]
			k := banks[i].k
			*th = parCtrlThread{p: &p, i: i, ns: &nodes[i], cpu: cpus[i], banks: banks, reply: sim.NewSignal(k, name)}
			th.st.Reseed(p.Seed, 1000+uint64(i)+uint64(j)*uint64(p.Nodes))
			k.SpawnActivity(name, th)
		}
	}
	if err := pk.Run(p.Horizon); err != nil {
		return SystemResult{}, err
	}
	return gather(nodes, p.Horizon), nil
}
