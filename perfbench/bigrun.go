package main

import (
	"fmt"
	"time"

	"repro/internal/scenario"
)

// bigrunWorkload is a closed loop with one client: each pass calls
// scenario.Run on every pinned big run at its serial runparallel and at
// runparallel nproc, and, for a run whose serial formulation is not
// runparallel 1, also at runparallel 1.
type bigrunWorkload struct {
	env   *env
	items []bigItem
	ref   []map[string]float64 // first pass's metrics, per item
}

// bigItem is one (run, runparallel) point of a pass.
type bigItem struct {
	spec bigSpec
	par  int // runparallel
	s    scenario.Scenario
}

// name is the span name: the layer plus the point's kind. serial is the
// run's serial formulation; part1 is runparallel 1 where that is not the
// serial formulation (parcelsys runs its partitioned formulation on one
// shard there); par is runparallel nproc.
func (it bigItem) name() string {
	switch {
	case it.par == it.spec.Serial:
		return it.spec.Layer + ".serial"
	case it.par == 1:
		return it.spec.Layer + ".part1"
	}
	return it.spec.Layer + ".par"
}

func (w *bigrunWorkload) setup() error {
	for _, spec := range w.env.in.Bigrun.Runs {
		pars := []int{spec.Serial}
		if spec.Serial != 1 {
			pars = append(pars, 1)
		}
		for _, par := range append(pars, w.env.nproc) {
			s, err := spec.scenario(par)
			if err != nil {
				return fmt.Errorf("bigrun %s: %w", spec.Preset, err)
			}
			w.items = append(w.items, bigItem{spec: spec, par: par, s: s})
		}
	}
	// Warm-up: the machine runs once each (the parcel and hostpim runs
	// are too long to repeat in every set-up and need no warming).
	for _, it := range w.items {
		if it.spec.Backend != "machine" {
			continue
		}
		if _, err := scenario.Run(it.s, it.spec.Backend, w.config()); err != nil {
			return fmt.Errorf("bigrun warm-up %s: %w", it.s.Name, err)
		}
	}
	return nil
}

func (w *bigrunWorkload) close() {}

func (w *bigrunWorkload) config() scenario.Config {
	return scenario.Config{Seed: w.env.seed, Quick: w.env.in.Bigrun.Quick}
}

// itemRun is one timed scenario.Run of a pass.
type itemRun struct {
	ms, allocMB float64
	metrics     map[string]float64
}

// pass runs every item once, checking that runparallel nproc reproduces
// runparallel 1 and that every pass reproduces the first. A serial
// formulation other than runparallel 1 draws differently by design, so it
// is checked only against the first pass.
func (w *bigrunWorkload) pass(tr *tracer, req int64) ([]itemRun, []string) {
	root := tr.begin("bigrun.pass", "", -1, req)
	defer tr.end(root)
	var problems []string
	runs := make([]itemRun, len(w.items))
	one := -1 // index of the current run's runparallel-1 point
	for i, it := range w.items {
		a0 := allocBytes()
		sp := tr.begin(it.name(), it.s.Name, root, req)
		t0 := time.Now()
		res, err := scenario.Run(it.s, it.spec.Backend, w.config())
		d := time.Since(t0)
		tr.end(sp)
		runs[i] = itemRun{ms: ms(d), allocMB: float64(allocBytes()-a0) / 1e6, metrics: res.Metrics}
		if it.par == 1 {
			one = i
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s runparallel %d: %v", it.s.Name, it.par, err))
			continue
		}
		if it.par == w.env.nproc && it.par != 1 && !sameMetrics(res.Metrics, runs[one].metrics) {
			problems = append(problems, fmt.Sprintf("%s: runparallel %d metrics differ from runparallel 1", it.s.Name, it.par))
		}
		if w.ref != nil && !sameMetrics(res.Metrics, w.ref[i]) {
			problems = append(problems, fmt.Sprintf("%s runparallel %d: metrics differ from the first pass", it.s.Name, it.par))
		}
	}
	return runs, problems
}

func (w *bigrunWorkload) run(r *result) error {
	var all [][]itemRun
	// pass runs and checks one pass and returns its wall time.
	pass := func(tr *tracer, req int) time.Duration {
		t0 := time.Now()
		runs, problems := w.pass(tr, int64(req))
		d := time.Since(t0)
		if w.ref == nil && len(problems) == 0 {
			w.ref = make([]map[string]float64, len(runs))
			for i := range runs {
				w.ref[i] = runs[i].metrics
			}
			fp := newFingerprint()
			for _, m := range w.ref {
				fp.metrics(m)
			}
			r.note("fingerprint bigrun %s (seed %d)", fp, w.env.seed)
		}
		all = append(all, runs)
		r.op(problems...)
		return d
	}
	start := time.Now()
	more := func(int) bool { return time.Since(start) < w.env.seconds }
	if !w.env.trace {
		a0 := allocBytes()
		var times []float64
		for i := 0; i == 0 || more(i); i++ {
			times = append(times, ms(pass(nil, i)))
		}
		closedLoopE2E(r, times, float64(allocBytes()-a0)/1024/float64(len(times)))
		var rates []float64
		for _, runs := range all {
			var instr, sec float64
			for i, it := range w.items {
				if it.spec.Backend == "machine" {
					instr += runs[i].metrics["instructions"]
					sec += runs[i].ms / 1000
				}
			}
			rates = append(rates, instr/1e6/sec)
		}
		r.note("vm_minstr_per_s %.3f Minstr/s (median over passes)", median(rates))
		return nil
	}

	r.layer["trace.overhead_frac"] = pairedOverhead(more, func(i int, traced bool) time.Duration {
		if traced {
			return pass(r.tracer, i)
		}
		return pass(nil, i)
	})
	byName := spanMS(r.tracer.snapshot(), false, false)
	m := func(name string) float64 { return median(byName[name]) }
	perItem := func(name string, f func(itemRun) float64) float64 {
		var xs []float64
		for _, runs := range all {
			for i, it := range w.items {
				if it.name() == name {
					xs = append(xs, f(runs[i]))
				}
			}
		}
		return median(xs)
	}
	instr := func(name string) float64 {
		return perItem(name, func(ir itemRun) float64 { return ir.metrics["instructions"] })
	}
	allocMB := func(name string) float64 {
		return perItem(name, func(ir itemRun) float64 { return ir.allocMB })
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, layer := range []string{"parcelsys", "hostpim", "isa"} {
		r.layer[layer+".serial_ms"] = m(layer + ".serial")
		r.layer[layer+".par_ms"] = m(layer + ".par")
		r.layer[layer+".par_speedup"] = ratio(m(layer+".serial"), m(layer+".par"))
	}
	r.layer["parcelsys.part1_ms"] = m("parcelsys.part1")
	r.layer["parcelsys.serial_alloc_mb"] = allocMB("parcelsys.serial")
	r.layer["parcelsys.par_alloc_mb"] = allocMB("parcelsys.par")
	r.layer["isa.fast.minstr_per_s"] = ratio(instr("isa.serial")/1e6, m("isa.serial")/1000)
	r.layer["isa.hooked_ms"] = m("isa.hooked.serial")
	r.layer["isa.hooked.minstr_per_s"] = ratio(instr("isa.hooked.serial")/1e6, m("isa.hooked.serial")/1000)
	var machineInstr, machineMS float64
	for _, name := range []string{"isa.serial", "isa.par", "isa.hooked.serial", "isa.hooked.par"} {
		machineInstr += instr(name)
		machineMS += m(name)
	}
	r.layer["vm_minstr_per_s"] = ratio(machineInstr/1e6, machineMS/1000)
	return nil
}
