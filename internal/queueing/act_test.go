package queueing

// The discrete-event stations the tests hold the closed forms to. Each is
// an ActNode: AcceptAct takes a job inline and forwards it downstream
// when its visit ends. Jobs are plain values: a station visit is an
// inline AcceptAct call plus at most one scheduled completion event, so
// a whole run executes inside the kernel's dispatch loop; only the
// source is an activity (internal/sim/simtest).

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/stats"
)

// Job is the unit of flow through a queueing network (a Workbench
// "transaction").
type Job struct {
	ID      int64
	Class   int // workload class, available for routing decisions
	Created sim.Time
	// Start is per-station scratch: the arrival time at the station
	// currently holding the job.
	Start sim.Time
	// Attrs carries model-specific baggage.
	Attrs map[string]float64
}

// Sink absorbs jobs and records their end-to-end sojourn times.
type Sink struct {
	Name string
	// Sojourn samples job lifetime (now - Created).
	Sojourn stats.Sample
	// Recycle, when non-nil, receives each absorbed job so its allocation
	// can be reused (an ActSource's Dispose closes the loop).
	Recycle func(*Job)
	count   int64
}

// NewSink creates a sink.
func NewSink(name string) *Sink { return &Sink{Name: name} }

// Count returns the number of jobs absorbed.
func (s *Sink) Count() int64 { return s.count }

// ProbRouter returns a choice function routing to output i with probability
// probs[i] (probabilities must sum to ~1).
func ProbRouter(st *rng.Stream, probs []float64) func(*Job) int {
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		panic(fmt.Sprintf("queueing: ProbRouter probabilities sum to %g", sum))
	}
	return func(*Job) int { return st.Discrete(probs) }
}

// ActNode consumes jobs. AcceptAct must not block: it runs to completion
// inside the caller's dispatch step.
type ActNode interface {
	AcceptAct(k *sim.Kernel, j *Job)
}

// ActNodeFunc adapts a function to the ActNode interface.
type ActNodeFunc func(k *sim.Kernel, j *Job)

// AcceptAct calls the function.
func (f ActNodeFunc) AcceptAct(k *sim.Kernel, j *Job) { f(k, j) }

// AcceptAct absorbs the job, handing it to Recycle when set.
func (s *Sink) AcceptAct(k *sim.Kernel, j *Job) {
	s.count++
	s.Sojourn.Add(k.Now() - j.Created)
	if s.Recycle != nil {
		s.Recycle(j)
	}
}

// ActSource generates jobs with a given interarrival distribution: one
// activity re-arms itself per interarrival. Jobs disposed back to the
// source are reused, so a steady-state run allocates nothing per job.
type ActSource struct {
	Name string
	// Limit stops generation after this many jobs (0 = unlimited); the
	// generator activity exits when it is reached.
	Limit int64

	k      *sim.Kernel
	inter  func() float64
	class  int
	out    ActNode
	next   int64
	primed bool
	free   []*Job
}

// NewActSource creates a source of class-0 jobs with the given
// interarrival sampler, feeding out. Call Start to launch it.
func NewActSource(k *sim.Kernel, name string, interarrival func() float64, out ActNode) *ActSource {
	return &ActSource{Name: name, k: k, inter: interarrival, out: out}
}

// SetClass sets the class of generated jobs.
func (s *ActSource) SetClass(class int) { s.class = class }

// Start launches the generator activity.
func (s *ActSource) Start() { simtest.New(s.k).Spawn(s.Name, s) }

// Generated returns the number of jobs generated so far.
func (s *ActSource) Generated() int64 { return s.next }

// Dispose returns an absorbed job to the source's free list (wire it to
// the terminal Sink's Recycle field).
func (s *ActSource) Dispose(j *Job) { s.free = append(s.free, j) }

// Step emits one job per resumption; the first arrival happens one
// interarrival after the start time.
func (s *ActSource) Step(a *simtest.ActCtx) {
	if !s.primed {
		s.primed = true
		a.Wait(s.inter())
		return
	}
	var j *Job
	if n := len(s.free); n > 0 {
		j = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*j = Job{}
	} else {
		j = &Job{}
	}
	j.ID = s.next
	j.Class = s.class
	j.Created = a.Now()
	s.next++
	s.out.AcceptAct(s.k, j)
	if s.Limit > 0 && s.next >= s.Limit {
		a.Exit()
		return
	}
	a.Wait(s.inter())
}

// ActServer is the k-server FIFO station: arriving jobs enter service
// immediately when a server is free and queue otherwise; each service is
// one scheduled completion event carrying the job (no closure per job).
type ActServer struct {
	Name string
	// Service samples the service times actually drawn.
	Service stats.Sample
	// Sojourn samples wait + service per visit.
	Sojourn stats.Sample
	// Util is the time-weighted number of busy servers; Util.Mean(now) /
	// servers is the utilization ρ.
	Util stats.TimeWeighted
	// QueueLen is the time-weighted number of waiting jobs.
	QueueLen stats.TimeWeighted

	k        *sim.Kernel
	servers  int
	busy     int
	queue    []*Job
	svc      func(*Job) float64
	out      ActNode
	complete func(any) // bound once; every completion event reuses it
}

// NewActServer creates a station with `servers` identical servers,
// service sampler svc, and downstream node out (nil drops the job).
func NewActServer(k *sim.Kernel, name string, servers int, svc func(*Job) float64, out ActNode) *ActServer {
	if servers <= 0 {
		panic(fmt.Sprintf("queueing: NewActServer %q with %d servers", name, servers))
	}
	s := &ActServer{Name: name, k: k, servers: servers, svc: svc, out: out}
	s.Util.Set(k.Now(), 0)
	s.QueueLen.Set(k.Now(), 0)
	s.complete = s.finish
	return s
}

// Servers returns the number of servers.
func (s *ActServer) Servers() int { return s.servers }

// Busy returns the number of servers currently serving.
func (s *ActServer) Busy() int { return s.busy }

// QueueLength returns the number of jobs currently waiting.
func (s *ActServer) QueueLength() int { return len(s.queue) }

// Utilization returns the mean fraction of servers busy over the run.
func (s *ActServer) Utilization(now sim.Time) float64 {
	return s.Util.Mean(now) / float64(s.servers)
}

// AcceptAct admits the job: straight into service when a server is free,
// else into the FIFO queue.
func (s *ActServer) AcceptAct(k *sim.Kernel, j *Job) {
	j.Start = k.Now()
	if s.busy < s.servers {
		s.begin(j)
		return
	}
	s.queue = append(s.queue, j)
	s.QueueLen.Set(k.Now(), float64(len(s.queue)))
}

// begin starts one service and schedules its completion.
func (s *ActServer) begin(j *Job) {
	now := s.k.Now()
	s.busy++
	s.Util.Set(now, float64(s.busy))
	t := s.svc(j)
	if t < 0 {
		panic(fmt.Sprintf("queueing: server %q sampled negative service time %g", s.Name, t))
	}
	s.Service.Add(t)
	s.k.ScheduleArg(t, s.complete, j)
}

// finish completes one service: frees the server, admits the queue head,
// and forwards the job downstream.
func (s *ActServer) finish(x any) {
	j := x.(*Job)
	now := s.k.Now()
	s.busy--
	s.Util.Set(now, float64(s.busy))
	s.Sojourn.Add(now - j.Start)
	if len(s.queue) > 0 {
		var head *Job
		s.queue, head = simtest.PopFront(s.queue)
		s.QueueLen.Set(now, float64(len(s.queue)))
		s.begin(head)
	}
	if s.out != nil {
		s.out.AcceptAct(s.k, j)
	}
}

// ActDelay holds each job for a sampled time without queueing (an
// infinite-server station; models pure latency such as the paper's flat
// interconnect delay).
type ActDelay struct {
	Name string

	k       *sim.Kernel
	d       func(*Job) float64
	out     ActNode
	forward func(any)
}

// NewActDelay creates a pure-delay node.
func NewActDelay(k *sim.Kernel, name string, d func(*Job) float64, out ActNode) *ActDelay {
	ad := &ActDelay{Name: name, k: k, d: d, out: out}
	ad.forward = func(x any) {
		if ad.out != nil {
			ad.out.AcceptAct(ad.k, x.(*Job))
		}
	}
	return ad
}

// AcceptAct delays the job and forwards it.
func (d *ActDelay) AcceptAct(k *sim.Kernel, j *Job) {
	t := d.d(j)
	if t < 0 {
		panic(fmt.Sprintf("queueing: delay %q sampled negative time %g", d.Name, t))
	}
	k.ScheduleArg(t, d.forward, j)
}

// ActRouter sends each job to one of several outputs according to a
// choice function (probabilistic, class-based, round-robin...).
type ActRouter struct {
	Name   string
	choose func(*Job) int
	outs   []ActNode
}

// NewActRouter creates a router. choose must return an index into outs.
func NewActRouter(name string, choose func(*Job) int, outs ...ActNode) *ActRouter {
	return &ActRouter{Name: name, choose: choose, outs: outs}
}

// AcceptAct forwards the job to the chosen output.
func (r *ActRouter) AcceptAct(k *sim.Kernel, j *Job) {
	idx := r.choose(j)
	if idx < 0 || idx >= len(r.outs) {
		panic(fmt.Sprintf("queueing: router %q chose invalid output %d of %d", r.Name, idx, len(r.outs)))
	}
	r.outs[idx].AcceptAct(k, j)
}

// ActClosedLoop keeps a fixed population of jobs circulating through a
// chain of stations forever — the closed-network counterpart of
// ActSource. Wire the last station's output to the loop and Start it with
// the first station: every job that comes back completes one circuit and
// starts the next. Throughput gives the metric MVA predicts.
type ActClosedLoop struct {
	Name string
	// CycleTimes samples the duration of each completed circuit.
	CycleTimes stats.Sample

	cycles     int64
	population int
	first      ActNode
}

// NewActClosedLoop creates a loop of `population` jobs.
func NewActClosedLoop(name string, population int) *ActClosedLoop {
	if population <= 0 {
		panic(fmt.Sprintf("queueing: NewActClosedLoop with %d jobs", population))
	}
	return &ActClosedLoop{Name: name, population: population}
}

// Start injects the population into first at the current time.
func (cl *ActClosedLoop) Start(k *sim.Kernel, first ActNode) {
	cl.first = first
	for i := 0; i < cl.population; i++ {
		first.AcceptAct(k, &Job{ID: int64(i), Created: k.Now()})
	}
}

// AcceptAct completes a circuit: Created is reset to the start of the
// job's next circuit.
func (cl *ActClosedLoop) AcceptAct(k *sim.Kernel, j *Job) {
	cl.cycles++
	cl.CycleTimes.Add(k.Now() - j.Created)
	j.Created = k.Now()
	cl.first.AcceptAct(k, j)
}

// Population returns the circulating job count.
func (cl *ActClosedLoop) Population() int { return cl.population }

// Cycles returns the number of completed circuits.
func (cl *ActClosedLoop) Cycles() int64 { return cl.cycles }

// Throughput returns completed circuits per unit time over [0, now].
func (cl *ActClosedLoop) Throughput(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(cl.cycles) / now
}

// ActPSServer is an egalitarian processor-sharing station: all resident
// jobs progress simultaneously, each at rate 1/n of the server. Mean
// sojourn in M/M/1-PS equals M/M/1-FCFS, which the tests exploit; unlike
// FCFS the sojourn of a job depends only on its own size and the load.
type ActPSServer struct {
	Name string
	// Sojourn samples the time each job spent at the station.
	Sojourn stats.Sample
	// Load is the time-weighted number of resident jobs.
	Load stats.TimeWeighted

	k        *sim.Kernel
	svc      func(*Job) float64
	out      ActNode
	jobs     []psJob // in arrival order
	lastT    sim.Time
	next     *Job   // the job the pending completion event finishes
	gen      uint64 // generation of the pending completion event
	complete func(any)
}

type psJob struct {
	j         *Job
	remaining float64 // remaining service requirement
}

// NewActPSServer creates a processor-sharing station with service sampler
// svc and downstream node out (nil drops the job).
func NewActPSServer(k *sim.Kernel, name string, svc func(*Job) float64, out ActNode) *ActPSServer {
	ps := &ActPSServer{Name: name, k: k, svc: svc, out: out}
	ps.Load.Set(k.Now(), 0)
	ps.complete = ps.finish
	return ps
}

// Resident returns the current number of jobs in service.
func (ps *ActPSServer) Resident() int { return len(ps.jobs) }

// AcceptAct admits the job into service.
func (ps *ActPSServer) AcceptAct(k *sim.Kernel, j *Job) {
	req := ps.svc(j)
	if req < 0 {
		panic(fmt.Sprintf("queueing: PS server %q sampled negative service %g", ps.Name, req))
	}
	ps.advance()
	j.Start = k.Now()
	ps.jobs = append(ps.jobs, psJob{j: j, remaining: req})
	ps.Load.Set(k.Now(), float64(len(ps.jobs)))
	ps.reschedule()
}

// advance applies elapsed processing to all resident jobs.
func (ps *ActPSServer) advance() {
	now := ps.k.Now()
	if dt := now - ps.lastT; dt > 0 && len(ps.jobs) > 0 {
		rate := 1 / float64(len(ps.jobs))
		for i := range ps.jobs {
			ps.jobs[i].remaining -= dt * rate
		}
	}
	ps.lastT = now
}

// reschedule replaces any pending completion event with one for the
// resident job closest to done (the earliest arrival on ties). The
// replaced event stays queued; bumping the generation makes it stale.
func (ps *ActPSServer) reschedule() {
	ps.gen++
	ps.next = nil
	if len(ps.jobs) == 0 {
		return
	}
	best := 0
	for i, pj := range ps.jobs {
		if pj.remaining < ps.jobs[best].remaining {
			best = i
		}
	}
	dt := ps.jobs[best].remaining * float64(len(ps.jobs))
	if dt < 0 {
		dt = 0
	}
	ps.next = ps.jobs[best].j
	ps.k.ScheduleArg(dt, ps.complete, ps.gen)
}

// finish completes the scheduled job and forwards it downstream; a stale
// completion, one of an earlier generation, does nothing.
func (ps *ActPSServer) finish(gen any) {
	if gen.(uint64) != ps.gen {
		return
	}
	ps.advance()
	j := ps.next
	for i := range ps.jobs {
		if ps.jobs[i].j == j {
			ps.jobs = append(ps.jobs[:i], ps.jobs[i+1:]...)
			break
		}
	}
	now := ps.k.Now()
	ps.Load.Set(now, float64(len(ps.jobs)))
	ps.Sojourn.Add(now - j.Start)
	ps.reschedule()
	if ps.out != nil {
		ps.out.AcceptAct(ps.k, j)
	}
}
