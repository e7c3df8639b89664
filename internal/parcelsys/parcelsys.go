// Package parcelsys implements the paper's second study (§4): the
// statistical queuing comparison of a conventional blocking message-passing
// system (the control) against a parcel-driven split-transaction system
// (the test) under a flat system-wide latency.
//
// Both systems run the same workload for the same simulated time and the
// total work completed is compared (Fig. 11); per-node idle time is the
// second dependent variable (Fig. 12).
//
// Workload model. Computation is carried by logical threads. A thread
// executes runs of useful 1-cycle operations punctuated by memory accesses
// (fraction MixMem of operations); each access is remote with probability
// RemoteFrac.
//
//   - Control system: one thread lives permanently on each processor. A
//     local access busies the node's memory for MemCycles. A remote access
//     sends a request (latency L), is serviced by the destination node's
//     memory, and returns (latency L); the processor *waits idle* the whole
//     round trip — the paper's third processor state.
//
//   - Test system: Parallelism threads per processor circulate as parcels.
//     A remote access moves the computation to the data: the node pays the
//     parcel-creation overhead, ships the continuation (one-way latency L),
//     and immediately services its next pending parcel; it idles only when
//     no parcels are queued ("split transaction execution").
//
// Simulation. Each system runs on a sim kernel of its own (the drivers
// are in drivers.go), and in both the model keeps its own state in
// closed form: the kernel only orders events. The systems share nothing,
// so from RunParallel 2 on they run side by side on two goroutines.
//
// A control thread's events are its arrivals at memory banks. A node's
// bank is a FIFO server with a fixed service time, and its CPU is a FIFO
// of threads that the model keeps itself: a thread holds the CPU for its
// useful run, and through the bank wait and the service of a local
// access, but releases it for the round trip of a remote one. So a local
// access costs one event, the arrival at the node's own bank, which
// books the service, credits the run and the access, draws the next
// segment and plans the next arrival. A remote access costs two: the
// request at the destination bank, which books the service and sends
// the reply, and the reply, which completes the access. With several
// threads per node, a thread ending a local access queues behind the
// threads whose replies land during its service, so it queues in an
// event of its own at the service's end, unless an event at that
// instant comes first.
//
// A test node cannot be preempted and touches only its own memory, so
// nothing can observe it between fetching a parcel and shipping it: it
// is a FIFO server held in closed form, like the bank, and a parcel's
// hop costs one event, its landing. The landing books the node's next
// busy period, plans the parcel's whole visit in it — assimilation, the
// migrated access, the thread's ops up to its next remote access,
// creation — and sends the parcel on to land when the visit ends plus
// the one-way latency. Each of the thread's ops is independently a
// useful op, a local access, or the remote access that ends the visit,
// so its ops take two draws: the count N of non-remote ops before the
// remote access, which is geometric, and the count L of local accesses
// among them, which given N is binomial. Only a visit that might not end
// by the horizon walks its ops in order. The control system keeps
// drawing a segment per access: its local accesses queue at a bank that
// remote requests also use, so its runs depend on other nodes.
//
// Ops are credited as they would complete: in the test system each op,
// in the control system each piece (a useful run, an access), counts if
// it ends by the horizon. Busy time is clipped to the horizon.
package parcelsys

import (
	"fmt"
	"math"

	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Params configures one paired (control, test) experiment.
type Params struct {
	// Nodes is the number of processors in each system (Fig. 12 sweeps
	// 1…256).
	Nodes int
	// Parallelism is the number of parcels per processor in the test
	// system — the paper's "degree of parallelism exposed by the
	// split-transaction model" (Fig. 11's six major experiments).
	Parallelism int
	// RemoteFrac is the fraction of memory accesses that are remote.
	RemoteFrac float64
	// Latency is the flat one-way system latency in cycles.
	Latency float64
	// MixMem is the fraction of operations that access memory (the
	// instruction-mix parameter shared by both systems; Table 1's 0.30).
	MixMem float64
	// MemCycles is the local memory access time in cycles.
	MemCycles float64
	// Overhead prices the parcel mechanism (creation/assimilation); the
	// control system pays none of it.
	Overhead parcel.CostModel
	// Horizon is the simulated time both systems run for.
	Horizon float64
	// Seed drives all stochastic draws.
	Seed uint64
	// Net, when non-nil, supplies per-pair one-way latencies (a hop-count
	// topology from internal/network) instead of the paper's flat Latency.
	// Net.Nodes() must equal Nodes.
	Net network.Network
	// Hotspot skews remote destinations: with probability Hotspot a remote
	// access targets node 0 regardless of source; the remainder are
	// uniform. 0 (the paper's assumption) means uniform traffic.
	Hotspot float64
	// ControlThreads gives the control system multiple blocking threads
	// per processor (conventional multithreaded message passing). The
	// paper's control is single-threaded; raising this isolates the
	// parcels' remaining advantage (one-way migration vs round trips and
	// hardware-assisted handling). 0 means 1.
	ControlThreads int
	// RunParallel is the worker count of one run. Each system runs on
	// one kernel: below 2 the systems run one after the other, and from 2
	// on side by side, one goroutine each; larger values add nothing.
	// Results are identical for every value, since the systems share no
	// state.
	RunParallel int
}

// DefaultParams returns the parameter point used by the Fig. 11/12
// reproductions: PIM-like nodes (MixMem 0.3, 10-cycle local memory),
// hardware-assisted parcel overheads.
func DefaultParams() Params {
	return Params{
		Nodes:       16,
		Parallelism: 4,
		RemoteFrac:  0.3,
		Latency:     200,
		MixMem:      0.3,
		MemCycles:   10,
		Overhead:    parcel.HardwareAssisted(),
		Horizon:     200000,
		Seed:        1,
	}
}

// Validate checks parameter sanity. Every float must be finite: NaN
// passes each range comparison below (they are all false for it).
func (p Params) Validate() error {
	oh := p.Overhead
	for _, x := range [...]float64{p.RemoteFrac, p.Latency, p.MixMem, p.MemCycles, p.Horizon, p.Hotspot,
		oh.CreateCycles, oh.AssimilateCycles, oh.ReplyCycles} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("parcelsys: non-finite parameter in %+v", p)
		}
	}
	switch {
	case p.Nodes <= 0:
		return fmt.Errorf("parcelsys: Nodes = %d", p.Nodes)
	case p.Parallelism <= 0:
		return fmt.Errorf("parcelsys: Parallelism = %d", p.Parallelism)
	case p.RemoteFrac < 0 || p.RemoteFrac > 1:
		return fmt.Errorf("parcelsys: RemoteFrac = %g", p.RemoteFrac)
	case p.Latency < 0:
		return fmt.Errorf("parcelsys: Latency = %g", p.Latency)
	case p.MixMem <= 0 || p.MixMem > 1:
		return fmt.Errorf("parcelsys: MixMem = %g (the workload needs memory accesses)", p.MixMem)
	case p.MemCycles <= 0:
		return fmt.Errorf("parcelsys: MemCycles = %g", p.MemCycles)
	case p.Horizon <= 0:
		return fmt.Errorf("parcelsys: Horizon = %g", p.Horizon)
	}
	if p.Net != nil && p.Net.Nodes() != p.Nodes {
		return fmt.Errorf("parcelsys: network has %d nodes, system has %d", p.Net.Nodes(), p.Nodes)
	}
	if p.Hotspot < 0 || p.Hotspot > 1 {
		return fmt.Errorf("parcelsys: Hotspot = %g", p.Hotspot)
	}
	if p.ControlThreads < 0 {
		return fmt.Errorf("parcelsys: ControlThreads = %d", p.ControlThreads)
	}
	if p.RunParallel < 0 {
		return fmt.Errorf("parcelsys: RunParallel = %d", p.RunParallel)
	}
	return p.Overhead.Validate()
}

// pickDest selects the destination of a remote access from src.
func (p *Params) pickDest(st *rng.Stream, src int) int {
	if p.Hotspot > 0 && st.Bernoulli(p.Hotspot) {
		if src != 0 {
			return 0
		}
		// The hotspot node's own remote traffic falls back to uniform.
	}
	return otherNode(st, src, p.Nodes)
}

// latency returns the one-way latency from src to dst: the flat Latency by
// default, or the topology's value when Net is set.
func (p *Params) latency(src, dst int) float64 {
	if p.Net != nil {
		return p.Net.Latency(src, dst)
	}
	return p.Latency
}

// SystemResult reports one system's run.
type SystemResult struct {
	// Ops is the total work completed: useful operations plus memory
	// accesses, summed over nodes.
	Ops int64
	// RemoteAccesses counts completed remote transactions.
	RemoteAccesses int64
	// IdleFrac is the mean fraction of processor time spent idle
	// (waiting for replies in the control, empty parcel queue in the
	// test).
	IdleFrac float64
	// PerNodeIdle is the idle fraction of each node.
	PerNodeIdle []float64
	// QueueMean is the time-averaged parcel-queue length per node (test
	// system only; zero for the control).
	QueueMean float64
}

// Result pairs the two systems.
type Result struct {
	Control SystemResult
	Test    SystemResult
	// Ratio is Test.Ops / Control.Ops — Fig. 11's vertical axis.
	Ratio float64
}

// Run executes the paired experiment.
func Run(p Params) (Result, error) {
	return runWith(p, &runState{})
}

// runState holds the per-run slabs — control nodes, threads and their
// per-node statistics; parcel structs with their embedded RNG streams,
// test nodes and theirs — and each system's event kernel, which
// Replicate reuses across replications instead of reallocating per run.
// Each system has slabs and a kernel of its own, so the two can run side
// by side (one after the other they share the stats slab). All state is
// fully re-initialized by each run.
type runState struct {
	ctrlStats []nodeStats
	ctrlNodes []ctrlNode
	threads   []ctrlThread
	testStats []nodeStats
	parcels   []workParcel
	testNodes []testNode
	ctrlK     *sim.Kernel
	testK     *sim.Kernel
}

// kernel returns *k reset for a new run, creating it on first use.
func kernel(k **sim.Kernel) *sim.Kernel {
	if *k == nil {
		*k = sim.NewKernel()
	} else {
		(*k).Reset()
	}
	return *k
}

// slab returns s resized to n elements, reusing capacity; the caller
// re-initializes every element.
func slab[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// runWith executes the paired experiment against reusable slabs: the
// systems one after the other below RunParallel 2, else side by side.
func runWith(p Params, st *runState) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	var ctrl, test SystemResult
	var err error
	if p.RunParallel < 2 {
		if ctrl, err = runControlSystem(p, st); err == nil {
			// One after the other, the systems can share one stats slab:
			// gather has copied out what the control reports. The alias
			// ends with the run, so a side-by-side run never sees it.
			st.testStats = st.ctrlStats
			test, err = runTestSystem(p, st)
			st.testStats = nil
		}
	} else {
		ctrl, test, err = runSideBySide(p, st)
	}
	if err != nil {
		return Result{}, err
	}
	r := Result{Control: ctrl, Test: test}
	if ctrl.Ops > 0 {
		r.Ratio = float64(test.Ops) / float64(ctrl.Ops)
	}
	return r, nil
}

// runSideBySide runs the two systems concurrently, the control on a
// goroutine of its own and the test on the caller. They share no mutable
// state, so the results are those of the serial order. The control's
// error, the one the serial order reports first, wins; a panic on the
// control's goroutine is raised again on the caller.
func runSideBySide(p Params, st *runState) (ctrl, test SystemResult, err error) {
	var cerr error
	var cpanic any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { cpanic = recover() }()
		ctrl, cerr = runControlSystem(p, st)
	}()
	test, err = runTestSystem(p, st)
	<-done
	if cpanic != nil {
		panic(cpanic)
	}
	if cerr != nil {
		return ctrl, test, cerr
	}
	return ctrl, test, err
}

// nodeStats accumulates per-node busy time and op counts, and in the
// test system the total time parcels waited in the node's queue by the
// horizon.
type nodeStats struct {
	busy stats.TimeWeighted
	ops  int64
	rem  int64
	wait float64
}

// segment draws one execution segment: the number of useful ops before the
// next memory access (geometric in MixMem). Returns (usefulOps, isRemote).
func segment(st *rng.Stream, p *Params) (int, bool) {
	n := st.Geometric(p.MixMem)
	remote := p.Nodes > 1 && st.Bernoulli(p.RemoteFrac)
	return n, remote
}

// workParcel is a migrating computation continuation in the test system.
// The RNG stream is embedded by value so a run's parcels live in one
// reusable slab instead of two allocations per parcel.
type workParcel struct {
	st rng.Stream
	// rt draws the parcel's routing decisions, from a stream of the
	// parcel's own, so a parcel's route does not depend on how the other
	// parcels' landings interleave with its own.
	rt rng.Stream
	// dst is the destination node while the parcel is in flight (the
	// landing event carries the parcel, not a closure).
	dst *testNode
	// pendingAccess marks that the parcel migrated because of a remote
	// memory access: the destination performs that access (now local)
	// right after assimilation.
	pendingAccess bool
}

// seedParcel resets wp as parcel j of node i's initial Parallelism.
func (p *Params) seedParcel(wp *workParcel, i, j int) {
	wp.pendingAccess = false
	wp.st.Reseed(p.Seed, 2000+uint64(i)*64+uint64(j))
	wp.rt.Reseed(p.Seed, 7000+uint64(i)*64+uint64(j))
}

// testNode is one split-transaction processor. A test node cannot be
// preempted: once it fetches a parcel it runs that thread until the
// thread needs remote data, and nothing can observe the node in between.
// So it is a FIFO single server whose service times are the visits, held
// in closed form as the time it next falls free. A landing parcel books
// the next visit, the
// node idles only while nothing is booked, and the continuation ships
// one-way when the visit ends.
type testNode struct {
	p     *Params
	mix   opMix
	k     *sim.Kernel // the system's kernel
	i     int
	ns    *nodeStats
	peers []testNode // every node of the run, indexed by node
	free  sim.Time   // end of the last booked visit
}

// land books the visit of parcel wp, landing now: it starts when the
// node falls free and is credited in closed form — ops by visit, busy
// time and the parcel's queue wait clipped to the horizon. A visit that
// ends by the horizon ships the continuation, sent now to land when the
// visit ends plus the one-way latency.
func (n *testNode) land(wp *workParcel) {
	p, ns := n.p, n.ns
	h := p.Horizon
	now := n.k.Now()
	start := max(now, n.free)
	end := n.visit(wp, start)
	n.free = end
	ns.wait += min(start, h) - now
	if start < h && end > start {
		ns.busy.Add(start, 1)
		ns.busy.Add(min(end, h), -1)
	}
	if end > h {
		return
	}
	ns.rem++
	wp.pendingAccess = true
	d := p.pickDest(&wp.rt, n.i)
	wp.dst = &n.peers[d]
	n.k.ScheduleArgAt(end+p.latency(n.i, d), deliverParcel, wp)
}

// visit plans the busy period of parcel wp starting at time t and
// returns the time it ships. In order: the assimilation overhead that
// instantiates the parcel's action, the access that caused the migration
// (it executes here, where the data lives), then the thread's useful ops
// and local accesses up to its next remote access, and the creation
// overhead of the continuation.
//
// The thread's ops are two draws from the parcel's own stream (body):
// the count N of non-remote ops before the next remote access, and the
// count L of local accesses among them, so the visit ends at t + (N−L) +
// L·MemCycles + CreateCycles. Only a visit that might not end by the
// horizon needs the order of its ops: it walks them a run at a time
// (opMix.run). Each op is credited as it would complete: only an op
// ending by the horizon counts. A visit the horizon cuts (every visit at
// RemoteFrac 0 or on one node) ends past the horizon, so it never ships.
func (n *testNode) visit(wp *workParcel, t sim.Time) sim.Time {
	p, ns := n.p, n.ns
	h := p.Horizon
	t += p.Overhead.AssimilateCycles
	if wp.pendingAccess {
		wp.pendingAccess = false
		if t += p.MemCycles; t <= h {
			ns.ops++
		}
	}
	if t > h {
		return t
	}
	left, local, whole := n.body(&wp.st, t)
	if whole {
		if t += float64(left-local) + float64(local)*p.MemCycles; t <= h {
			ns.ops += int64(left)
		}
		return t + p.Overhead.CreateCycles
	}
	for left > 0 && t <= h {
		useful, access := n.mix.run(&wp.st, left)
		ns.ops += creditable(t, useful, h)
		t += float64(useful)
		left -= useful
		if access {
			if t += p.MemCycles; t <= h {
				ns.ops++
			}
			left--
		}
	}
	if left == 0 {
		return t + p.Overhead.CreateCycles
	}
	return t
}

// opMix is the test system's draw of a thread's ops. Each op is
// independently a remote access with probability end = MixMem·RemoteFrac,
// which ends the visit, or else a local access with probability
// local = MixMem·(1−RemoteFrac)/(1−end), or else a useful 1-cycle op. On
// one node or at RemoteFrac 0 no access is remote: end is 0 and local is
// MixMem.
type opMix struct {
	end, local float64
	// longest is the longest op, max(1, MemCycles): N ops take at most
	// N·longest cycles, whatever their order.
	longest float64
}

// newOpMix returns p's op mix.
func newOpMix(p *Params) opMix {
	m := opMix{local: p.MixMem, longest: max(1, p.MemCycles)}
	if p.Nodes > 1 {
		m.end = p.MixMem * p.RemoteFrac
	}
	switch {
	case m.end >= 1:
		m.local = 0
	case m.end > 0:
		m.local = min(1, p.MixMem*(1-p.RemoteFrac)/(1-m.end))
	}
	return m
}

// body draws the ops of a visit whose thread starts running at time t,
// after the migrated access. left is N, the non-remote ops before the
// next remote access; a thread that never makes one gets math.MaxInt,
// more than any horizon lets it run. When all N ops end by the horizon
// whatever their order (whole), local is L, the local accesses among
// them: given N, each is local independently with probability
// mix.local, so L ~ Binomial(N, mix.local). Otherwise local is 0 and the
// caller walks the ops in order with mix.run; whole depends on N and t
// only, so either way the draw is exact.
func (n *testNode) body(st *rng.Stream, t sim.Time) (left, local int, whole bool) {
	if n.mix.end == 0 {
		return math.MaxInt, 0, false
	}
	left = st.Geometric(n.mix.end)
	// A saturated N forms no time: the product stays a finite float64.
	if float64(left)*n.mix.longest > n.p.Horizon-t {
		return left, 0, false
	}
	return left, st.Binomial(left, n.mix.local), true
}

// run draws the next run of a walk through a visit's ops with left > 0
// non-remote ops to go: useful ops, then a local access if access. Given
// N the ops are independent, so a run of useful ops is Geometric(local)
// long, cut at left.
func (m opMix) run(st *rng.Stream, left int) (useful int, access bool) {
	if m.local > 0 {
		if g := st.Geometric(m.local); g < left {
			return g, true
		}
	}
	return left, false
}

// creditable returns how many of n useful ops starting at t end by the
// horizon h: the i in [1, n] with t + i <= h.
func creditable(t sim.Time, n int, h sim.Time) int64 {
	if t+float64(n) <= h {
		return int64(n)
	}
	k := n
	if d := h - t; d < float64(n) {
		k = max(int(d), 0)
	}
	for k < n && t+float64(k+1) <= h {
		k++
	}
	for k > 0 && t+float64(k) > h {
		k--
	}
	return int64(k)
}

// deliverParcel lands an in-flight parcel on its destination: the one
// event of a hop.
func deliverParcel(x any) {
	wp := x.(*workParcel)
	wp.dst.land(wp)
}

// otherNode picks a uniform destination distinct from self when possible.
func otherNode(st *rng.Stream, self, n int) int {
	if n == 1 {
		return 0
	}
	d := st.Intn(n - 1)
	if d >= self {
		d++
	}
	return d
}

// gather folds per-node statistics into a SystemResult. It copies
// everything it reports, so the caller may reuse the nodes slab
// immediately.
func gather(nodes []nodeStats, horizon float64) SystemResult {
	var r SystemResult
	r.PerNodeIdle = make([]float64, len(nodes))
	var idleSum float64
	for i := range nodes {
		ns := &nodes[i]
		r.Ops += ns.ops
		r.RemoteAccesses += ns.rem
		busyFrac := ns.busy.Mean(horizon)
		idle := 1 - busyFrac
		if idle < 0 {
			idle = 0
		}
		r.PerNodeIdle[i] = idle
		idleSum += idle
	}
	r.IdleFrac = idleSum / float64(len(nodes))
	return r
}

// Replicated reports a metric's mean and 95% confidence half-width over
// independent replications.
type Replicated struct {
	Mean float64
	CI95 float64
	N    int
}

// ReplicatedResult aggregates independent replications of Run.
type ReplicatedResult struct {
	Ratio    Replicated
	CtrlIdle Replicated
	TestIdle Replicated
}

// Replicate runs the paired experiment `reps` times with independent
// seeds derived from p.Seed and returns confidence intervals — the
// standard independent-replications method for steady-state DES output.
func Replicate(p Params, reps int) (ReplicatedResult, error) {
	if reps < 2 {
		return ReplicatedResult{}, fmt.Errorf("parcelsys: Replicate needs at least 2 replications")
	}
	var ratio, ctrl, test stats.Sample
	seeds := rng.New(p.Seed)
	// One slab of parcels, node stats, and RNG streams serves every
	// replication: each run reseeds the streams in place.
	var rs runState
	for i := 0; i < reps; i++ {
		q := p
		q.Seed = seeds.Uint64()
		r, err := runWith(q, &rs)
		if err != nil {
			return ReplicatedResult{}, err
		}
		ratio.Add(r.Ratio)
		ctrl.Add(r.Control.IdleFrac)
		test.Add(r.Test.IdleFrac)
	}
	mk := func(s *stats.Sample) Replicated {
		return Replicated{Mean: s.Mean(), CI95: s.CI(0.95), N: int(s.N())}
	}
	return ReplicatedResult{Ratio: mk(&ratio), CtrlIdle: mk(&ctrl), TestIdle: mk(&test)}, nil
}

// ControlIdleFracAnalytic returns the closed-form idle fraction of one
// control processor ignoring destination-memory queueing: per remote
// transaction the processor idles 2L while a cycle of work costs
// E[segment busy] = E[ops] + MemCycles.
func ControlIdleFracAnalytic(p Params) float64 {
	if p.Nodes == 1 || p.RemoteFrac == 0 {
		return 0
	}
	eOps := (1 - p.MixMem) / p.MixMem // mean useful ops per access
	busyPerAccess := eOps + p.MemCycles
	idlePerAccess := p.RemoteFrac * 2 * p.Latency
	return idlePerAccess / (busyPerAccess + idlePerAccess)
}

// TestSaturationRatioAnalytic returns the first-order prediction of
// Fig. 11's ratio: the test system saturates at full utilization once
// enough parallelism covers the in-flight time, so the ratio approaches
// 1/(1 − controlIdle), degraded by the parcel overhead share.
func TestSaturationRatioAnalytic(p Params) float64 {
	eOps := (1 - p.MixMem) / p.MixMem
	busyPerAccess := eOps + p.MemCycles
	ctrlCycle := busyPerAccess + p.RemoteFrac*2*p.Latency
	// Test busy per access includes overhead on the remote fraction; a
	// remote access costs create+assimilate but saves the memory visit at
	// the source (it happens at the destination, which is also counted as
	// busy there — system-wide the work moves, not disappears).
	testBusy := busyPerAccess + p.RemoteFrac*(p.Overhead.CreateCycles+p.Overhead.AssimilateCycles)
	// In-flight (not runnable) time per access in the test system.
	flight := p.RemoteFrac * p.Latency
	util := float64(p.Parallelism) * testBusy / (testBusy + flight)
	if util > 1 {
		util = 1
	}
	// Ops per cycle per node: control completes one access-cycle per
	// ctrlCycle; test completes util/testBusy access-cycles per cycle.
	ratio := (util / testBusy) * ctrlCycle
	return ratio
}
