// Package hostpim implements the paper's first study (§3): the queuing
// model of a heavyweight host processor (HWP) augmented with an array of N
// lightweight PIM processors (LWP) bonded to memory banks.
//
// The workload of W operations is split by temporal locality (Fig. 4):
// the high-locality fraction (1−%WL) runs on the HWP with a statistical
// cache, then the low-locality fraction %WL runs as N uniform concurrent
// threads, one per LWP. At any instant either the HWP or the LWP array is
// executing, never both — exactly the paper's execution flow.
//
// Two evaluation paths exist: Simulate (the stochastic queuing model, the
// counterpart of the paper's SES/Workbench runs behind Figs. 5 and 6) and
// the closed forms in internal/analytic (the paper's §3.1.2 model behind
// Fig. 7). The ACC experiment compares them. No station of the queuing
// model shares a resource, so Simulate sums each station's service times
// in a loop instead of running an event kernel.
package hostpim

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ControlPolicy selects how the control run — the HWP executing *all* the
// work by itself — treats the low-locality fraction's cache behaviour.
type ControlPolicy int

const (
	// ControlFixedMiss gives the whole control workload the Table 1 miss
	// rate Pmiss. This is the normalization the paper's analytical model
	// (§3.1.2) uses: time relative to "the HWP alone performing only high
	// temporal locality work".
	ControlFixedMiss ControlPolicy = iota
	// ControlLocalityAware degrades the miss rate to PmissLow (default 1.0)
	// on the low-locality fraction: data with no reuse cannot hit a cache.
	// This is the control run behind the paper's Fig. 5 gains ("100X" in
	// the extreme requires it; see DESIGN.md §2).
	ControlLocalityAware
)

func (c ControlPolicy) String() string {
	switch c {
	case ControlFixedMiss:
		return "fixed-miss"
	case ControlLocalityAware:
		return "locality-aware"
	default:
		return fmt.Sprintf("ControlPolicy(%d)", int(c))
	}
}

// Params are the Table 1 parametric assumptions plus the two independent
// sweep variables (%WL and N). All times are in HWP cycles, following the
// paper's normalization ("the units of cycles refers to HWP cycles").
type Params struct {
	// W is the total work in operations (Table 1: 100,000,000).
	W float64
	// PctWL is the fraction of work with low temporal locality, assigned
	// to the LWP array in the test system (%WL, swept 0…1).
	PctWL float64
	// N is the number of LWP (PIM) nodes.
	N int
	// TLCycle is the LWP cycle time in HWP cycles (Table 1: 5ns / 1ns = 5).
	TLCycle float64
	// TMH is the HWP main-memory access time on a cache miss (90).
	TMH float64
	// TCH is the HWP cache access time (2).
	TCH float64
	// TML is the LWP local memory access time (30).
	TML float64
	// Pmiss is the HWP cache miss rate on high-locality work (0.1).
	Pmiss float64
	// PmissLow is the HWP miss rate on low-locality work under the
	// locality-aware control policy (no reuse ⇒ 1.0).
	PmissLow float64
	// MixLS is the load/store fraction of the instruction mix (0.30).
	MixLS float64
	// Control selects the control-run cache policy.
	Control ControlPolicy
	// Overlap enables the extension mode in which the HWP and the LWP
	// array execute their fractions concurrently instead of the paper's
	// strictly alternating Fig. 4 flow ("at any one time, either the HWP
	// or LWP array is executing but not both"). Total time becomes the
	// max of the two phases rather than their sum.
	Overlap bool
}

// DefaultParams returns Table 1 exactly, with PctWL and N left for the
// caller (zero values: 0% LWP work, 1 node).
func DefaultParams() Params {
	return Params{
		W:        100e6,
		PctWL:    0,
		N:        1,
		TLCycle:  5,
		TMH:      90,
		TCH:      2,
		TML:      30,
		Pmiss:    0.1,
		PmissLow: 1.0,
		MixLS:    0.30,
		Control:  ControlLocalityAware,
	}
}

// Validate checks parameter sanity. Every float must be finite: NaN
// passes each range comparison below (they are all false for it).
func (p Params) Validate() error {
	for _, x := range [...]float64{p.W, p.PctWL, p.TLCycle, p.TMH, p.TCH, p.TML, p.Pmiss, p.PmissLow, p.MixLS} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("hostpim: non-finite parameter in %+v", p)
		}
	}
	switch {
	case p.W <= 0:
		return fmt.Errorf("hostpim: W = %g", p.W)
	case p.PctWL < 0 || p.PctWL > 1:
		return fmt.Errorf("hostpim: PctWL = %g", p.PctWL)
	case p.N <= 0:
		return fmt.Errorf("hostpim: N = %d", p.N)
	case p.TLCycle <= 0 || p.TMH <= 0 || p.TCH <= 0 || p.TML <= 0:
		return fmt.Errorf("hostpim: non-positive timing parameter")
	case p.Pmiss < 0 || p.Pmiss > 1 || p.PmissLow < 0 || p.PmissLow > 1:
		return fmt.Errorf("hostpim: miss rate out of [0,1]")
	case p.MixLS < 0 || p.MixLS > 1:
		return fmt.Errorf("hostpim: MixLS = %g", p.MixLS)
	case p.Control != ControlFixedMiss && p.Control != ControlLocalityAware:
		return fmt.Errorf("hostpim: unknown control policy %v", p.Control)
	}
	return nil
}

// HWPOpCycles returns the expected HWP cycles per operation at the given
// miss rate: 1 issue cycle, plus for the load/store fraction the cache
// access (TCH−1 extra) and the miss penalty.
func (p Params) HWPOpCycles(pmiss float64) float64 {
	return 1 + p.MixLS*(p.TCH-1+pmiss*p.TMH)
}

// LWPOpCycles returns the expected LWP cycles-per-operation in HWP cycles:
// TLCycle per issue, with the load/store fraction costing TML instead.
func (p Params) LWPOpCycles() float64 {
	return p.TLCycle + p.MixLS*(p.TML-p.TLCycle)
}

// NB returns the paper's third orthogonal parameter — the LWP/HWP per-op
// cost ratio. For N > NB, PIM support always wins regardless of %WL.
func (p Params) NB() float64 {
	return p.LWPOpCycles() / p.HWPOpCycles(p.Pmiss)
}

// Result reports one run of the model.
type Result struct {
	// TimeHWPPhase and TimeLWPPhase are the cycle counts of the two phases
	// of the test system (Fig. 4's timeline); Total is their sum.
	TimeHWPPhase float64
	TimeLWPPhase float64
	Total        float64
	// ControlTime is the control run (HWP does everything).
	ControlTime float64
	// Gain is ControlTime / Total (Fig. 5's dependent variable).
	Gain float64
	// Relative is Total normalized by the fixed-miss HWP-only time
	// (Fig. 7's dependent variable).
	Relative float64
	// NodeTimes, when produced by the simulator, holds each LWP thread's
	// completion time of its share of the low-locality work.
	NodeTimes []float64
	// HWPUtil and LWPUtil are simulator-measured busy fractions over the
	// test run.
	HWPUtil float64
	LWPUtil float64
}

// Analytic evaluates the model in closed form (the §3.1.2 equations).
func Analytic(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	tH := p.HWPOpCycles(p.Pmiss)
	tL := p.LWPOpCycles()
	wh := (1 - p.PctWL) * p.W
	wl := p.PctWL * p.W
	r := Result{
		TimeHWPPhase: wh * tH,
		TimeLWPPhase: wl * tL / float64(p.N),
	}
	if p.Overlap {
		r.Total = math.Max(r.TimeHWPPhase, r.TimeLWPPhase)
	} else {
		r.Total = r.TimeHWPPhase + r.TimeLWPPhase
	}
	r.ControlTime = p.controlTime()
	r.Gain = r.ControlTime / r.Total
	r.Relative = r.Total / (p.W * tH)
	return r, nil
}

// controlTime returns the control run's cycle count under the selected
// policy.
func (p Params) controlTime() float64 {
	switch p.Control {
	case ControlFixedMiss:
		return p.W * p.HWPOpCycles(p.Pmiss)
	case ControlLocalityAware:
		wh := (1 - p.PctWL) * p.W
		wl := p.PctWL * p.W
		return wh*p.HWPOpCycles(p.Pmiss) + wl*p.HWPOpCycles(p.PmissLow)
	default:
		panic(fmt.Sprintf("hostpim: unknown control policy %v", p.Control))
	}
}

// TimeRelative is the paper's closed form: 1 − %WL·(1 − NB/N). Exposed
// separately so tests can verify Analytic against the exact published
// equation.
func TimeRelative(p Params) float64 {
	return 1 - p.PctWL*(1-p.NB()/float64(p.N))
}

// SimOptions tunes the stochastic simulation.
type SimOptions struct {
	// Seed drives all stochastic draws: the HWP station draws from stream
	// 1, LWP node i from stream 100+i, and the control run from stream 2.
	Seed uint64
	// ChunkOps batches operations per station step; the op *counts*
	// inside a chunk are sampled exactly (binomial), so batching changes
	// only the timeline's granularity, not the statistics. 0 means a
	// default chosen for ~10k steps per run.
	ChunkOps int
	// Tracer, when non-nil, observes the test system's station timelines
	// (tracks "hwp-phase" and "lwp-<i>") — attach a trace.Recorder to
	// regenerate the paper's Fig. 4 thread timeline. The calls come
	// station by station, each track's in time order.
	Tracer trace.Tracer
}

// Simulate runs the queuing model: the HWP station of Fig. 2 followed by
// the N-node LWP array of Fig. 3 (or both at once under Overlap), with
// the control run executed in the same stochastic style. Returns the
// measured Result.
//
// Every station owns a capacity-1 processor and memory that nobody else
// uses, so no request ever queues: a station's timeline is the running
// sum of its pieces' service times and its busy time the sum of their
// lengths. Each station is therefore one loop over its own stream
// (stationSum) rather than a process on the event kernel; the oracle
// test holds the Result, every field bit for bit, and the traced
// timeline to the kernel formulation.
func Simulate(p Params, opt SimOptions) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	chunk := opt.ChunkOps
	if chunk <= 0 {
		chunk = int(math.Max(1, p.W/10000))
	}
	wh := (1 - p.PctWL) * p.W
	wl := p.PctWL * p.W
	tr := opt.Tracer
	tabs := getTables()
	defer putTables(tabs)
	tabs.mix.Reset(p.MixLS)
	tabs.miss.Reset(p.Pmiss)
	tabs.missLow.Reset(p.PmissLow)
	mix, miss := &tabs.mix, &tabs.miss

	var st rng.Stream
	st.Reseed(opt.Seed, 1)
	hwpEnd, hwpCPU, hwpMem := stationSum(p, &st, mix, miss, wh, chunk, 0, tr, "hwp-phase")
	res := Result{TimeHWPPhase: hwpEnd, NodeTimes: make([]float64, p.N)}

	// The LWP array starts at the end of the HWP phase (Fig. 4's barrier),
	// or with it under Overlap.
	start := hwpEnd
	if p.Overlap {
		start = 0
	}
	lwpEnd := start
	var lwpBusy float64
	for i := range res.NodeTimes {
		st.Reseed(opt.Seed, 100+uint64(i))
		var name string
		if tr != nil {
			name = "lwp-" + strconv.Itoa(i)
		}
		end, cpu, mem := stationSum(p, &st, mix, nil, wl/float64(p.N), chunk, start, tr, name)
		res.NodeTimes[i] = end - start
		if end > lwpEnd {
			lwpEnd = end
		}
		lwpBusy += cpu + mem
	}
	res.TimeLWPPhase = lwpEnd - start
	res.Total = math.Max(hwpEnd, lwpEnd)
	if res.Total > 0 {
		res.HWPUtil = (hwpCPU + hwpMem) / res.Total
		res.LWPUtil = lwpBusy / (res.Total * float64(p.N))
	}

	// The control system: the HWP alone, in one segment or (locality-aware)
	// two back to back.
	st.Reseed(opt.Seed, 2)
	switch p.Control {
	case ControlFixedMiss:
		res.ControlTime, _, _ = stationSum(p, &st, mix, miss, p.W, chunk, 0, nil, "")
	case ControlLocalityAware:
		t, _, _ := stationSum(p, &st, mix, miss, wh, chunk, 0, nil, "")
		res.ControlTime, _, _ = stationSum(p, &st, mix, &tabs.missLow, wl, chunk, t, nil, "")
	}
	if res.Total > 0 {
		res.Gain = res.ControlTime / res.Total
	}
	res.Relative = res.Total / (p.W * p.HWPOpCycles(p.Pmiss))
	return res, nil
}

// drawTables are the binomial tables of one Simulate call, one per
// probability its stations draw with. A call owns its set until it
// returns, so no two goroutines use one at once, and the channel hand-off
// below orders their uses.
type drawTables struct{ mix, miss, missLow rng.BinomialTable }

// idleTables keeps finished calls' sets for reuse, so Simulate allocates
// none once warm and a new p rebuilds tables in memory it already has.
// It is a channel, not a sync.Pool, because its reuse must be
// deterministic (the race detector makes sync.Pool drop entries at
// random), and its capacity bounds the idle memory: at most 32 sets,
// each capped by rng.BinomialTable, whatever p values callers send.
var idleTables = make(chan *drawTables, 32)

func getTables() *drawTables {
	select {
	case t := <-idleTables:
		return t
	default:
		return new(drawTables)
	}
}

func putTables(t *drawTables) {
	select {
	case idleTables <- t:
	default:
	}
}

// stationSum runs ops operations through one station from time t, chunk
// by chunk: it draws the chunk's composition from st, then holds the
// processor for the compute cycles and, if there are any, the memory for
// the access cycles. Batching changes only the timeline's granularity,
// not the statistics. mix draws each chunk's load/store count at MixLS.
// The HWP station of Fig. 2 (miss non-nil: issue + cache-hit cycles on
// the CPU, misses drawn from miss's rate on memory) and an LWP node of
// Fig. 3 (miss nil: TLCycle per issue on the node CPU, TML per load/store
// on its bank) share the loop. It returns the station's end time and each
// resource's busy time, summed piece by piece as end − start. tr, when
// non-nil, sees the timeline as track name.
func stationSum(p Params, st *rng.Stream, mix, miss *rng.BinomialTable, ops float64, chunk int, t float64, tr trace.Tracer, name string) (end, cpuBusy, memBusy float64) {
	if tr != nil {
		tr.ProcState(t, name, "start")
	}
	for left := int64(math.Round(ops)); left > 0; {
		n := min(int64(chunk), left)
		left -= n
		nLS := mix.Sample(st, int(n))
		var cpu, mem float64
		if miss != nil {
			cpu = float64(n) + float64(nLS)*(p.TCH-1)
			mem = float64(miss.Sample(st, nLS)) * p.TMH
		} else {
			cpu = float64(n-int64(nLS)) * p.TLCycle
			mem = float64(nLS) * p.TML
		}
		t = hold(t, cpu, &cpuBusy, tr, name)
		if mem > 0 {
			t = hold(t, mem, &memBusy, tr, name)
		}
	}
	if tr != nil {
		tr.ProcState(t, name, "done")
	}
	return t, cpuBusy, memBusy
}

// hold occupies a resource for d cycles from t: it adds the piece's
// length to *busy and returns the piece's end.
func hold(t, d float64, busy *float64, tr trace.Tracer, name string) float64 {
	end := t + d
	*busy += end - t
	if tr != nil {
		tr.ProcState(t, name, "wait")
		tr.ProcState(end, name, "run")
	}
	return end
}

// GainCurve sweeps %WL for a fixed node count using the analytic path,
// returning (pcts, gains) — one Fig. 5 series.
func GainCurve(base Params, n int, pcts []float64) ([]float64, error) {
	gains := make([]float64, len(pcts))
	for i, pct := range pcts {
		p := base
		p.N = n
		p.PctWL = pct
		r, err := Analytic(p)
		if err != nil {
			return nil, err
		}
		gains[i] = r.Gain
	}
	return gains, nil
}

// ResponseCurve sweeps node counts for a fixed %WL, returning total times
// — one Fig. 6 series.
func ResponseCurve(base Params, pct float64, nodes []int) ([]float64, error) {
	times := make([]float64, len(nodes))
	for i, n := range nodes {
		p := base
		p.N = n
		p.PctWL = pct
		r, err := Analytic(p)
		if err != nil {
			return nil, err
		}
		times[i] = r.Total
	}
	return times, nil
}

// AgreementBand runs both evaluation paths over a (pct × nodes) grid and
// returns the min, mean, and max relative error between simulation and
// analytic totals — the reproduction of the paper's "5% to 18%" agreement
// claim (§3.1.2).
func AgreementBand(base Params, pcts []float64, nodes []int, simW float64, seed uint64) (min, mean, max float64, err error) {
	var agg stats.Sample
	min = math.Inf(1)
	for _, pct := range pcts {
		for _, n := range nodes {
			p := base
			p.PctWL = pct
			p.N = n
			if simW > 0 {
				p.W = simW
			}
			an, aerr := Analytic(p)
			if aerr != nil {
				return 0, 0, 0, aerr
			}
			sr, serr := Simulate(p, SimOptions{Seed: seed})
			if serr != nil {
				return 0, 0, 0, serr
			}
			e := stats.RelErr(sr.Total, an.Total)
			agg.Add(e)
			if e < min {
				min = e
			}
			if e > max {
				max = e
			}
		}
	}
	return min, agg.Mean(), max, nil
}
