package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
)

// reproWorkload is a closed loop with one client: each pass regenerates
// the pinned experiments in quick mode through a fresh engine (no result
// cache, Workers = nproc), the run a pimstudy -quick user waits for.
type reproWorkload struct {
	env  *env
	exps []*core.Experiment // pinned experiments, in the seed's order
	cfg  core.Config
	ref  string // rendered-output fingerprint of the warm-up pass
}

func (w *reproWorkload) setup() error {
	in := w.env.in.Repro
	for _, id := range in.Experiments {
		e, err := core.Find(id)
		if err != nil {
			return err
		}
		w.exps = append(w.exps, e)
	}
	// The seed permutes the order the engine receives the experiments in:
	// it changes how they pack onto the workers, never what they compute.
	st := rng.NewWithStream(w.env.seed, 0x7e9)
	st.Shuffle(len(w.exps), func(i, j int) { w.exps[i], w.exps[j] = w.exps[j], w.exps[i] })
	w.cfg = core.Config{Seed: in.ConfigSeed, Quick: in.Quick, Workers: w.env.nproc}
	// Warm-up pass: its rendered output is the reference every measured
	// pass must reproduce byte for byte.
	out, problems := w.pass(nil, 0)
	if len(problems) > 0 {
		return fmt.Errorf("repro warm-up pass: %v", problems)
	}
	w.ref = out
	return nil
}

func (w *reproWorkload) close() {}

// pass runs every experiment once and returns the fingerprint of the
// rendered output (in pinned order) and the failed checks.
func (w *reproWorkload) pass(tr *tracer, req int64) (string, []string) {
	root := tr.begin("engine.run", "repro", -1, req)
	starts := map[string]time.Time{}
	opts := engine.Options{Workers: w.env.nproc}
	if tr != nil {
		opts.Events = func(ev engine.Event) {
			switch ev.Kind {
			case engine.EventStart:
				starts[ev.ID] = time.Now()
			case engine.EventDone, engine.EventError:
				tr.record("core."+ev.ID, root, req, starts[ev.ID], time.Now())
			}
		}
	}
	res, err := engine.New(opts).Run(w.cfg, w.exps)
	tr.end(root)

	var problems []string
	if err != nil {
		problems = append(problems, err.Error())
	}
	byID := make(map[string]engine.Result, len(res))
	for _, r := range res {
		byID[r.ID] = r
		if r.Outcome == nil {
			continue
		}
		for _, c := range r.Outcome.Failed() {
			problems = append(problems, fmt.Sprintf("%s: paper check %q failed: %s", r.ID, c.Name, c.Detail))
		}
	}
	ordered := make([]engine.Result, 0, len(res))
	for _, id := range w.env.in.Repro.Experiments {
		ordered = append(ordered, byID[id])
	}
	var buf bytes.Buffer
	if err := engine.WriteResults(&buf, ordered, 0); err != nil {
		problems = append(problems, err.Error())
	}
	fp := newFingerprint()
	fp.bytes(buf.Bytes())
	return fp.String(), problems
}

func (w *reproWorkload) run(r *result) error {
	// pass runs and checks one pass and returns its wall time.
	pass := func(tr *tracer, req int) time.Duration {
		t0 := time.Now()
		fp, problems := w.pass(tr, int64(req))
		d := time.Since(t0)
		if fp != w.ref {
			problems = append(problems, fmt.Sprintf("rendered output fingerprint %s differs from the warm-up pass's %s", fp, w.ref))
		}
		r.op(problems...)
		return d
	}
	r.note("fingerprint repro %s (config seed %d, quick %t, %d experiments)",
		w.ref, w.cfg.Seed, w.cfg.Quick, len(w.exps))
	start := time.Now()
	more := func(int) bool { return time.Since(start) < w.env.seconds }
	if !w.env.trace {
		a0 := allocBytes()
		var times []float64
		for i := 0; i == 0 || more(i); i++ {
			times = append(times, ms(pass(nil, i)))
		}
		closedLoopE2E(r, times, float64(allocBytes()-a0)/1024/float64(len(times)))
		return nil
	}
	r.layer["trace.overhead_frac"] = pairedOverhead(more, func(i int, traced bool) time.Duration {
		if traced {
			return pass(r.tracer, i)
		}
		return pass(nil, i)
	})
	byName := spanMS(r.tracer.snapshot(), false, false)
	for _, id := range reproIDs {
		r.layer["core."+id+".ms"] = median(byName["core."+id])
	}
	return nil
}

// closedLoopE2E fills the end-to-end metrics of a one-client closed loop
// from its pass times (ms): the median and slowest-percentile pass, the
// allocation per pass, and the pass rate the client sustained.
func closedLoopE2E(r *result, times []float64, allocKB float64) {
	var total float64
	for _, t := range times {
		total += t
	}
	r.e2e["p50_ms"] = median(times)
	r.e2e["p99_ms"] = percentile(times, 99)
	r.e2e["alloc_kb_per_op"] = allocKB
	r.e2e["max_rate_rps"] = float64(len(times)) / (total / 1000)
	r.note("passes: %d  median %.2f ms  p99 %.2f ms", len(times), median(times), percentile(times, 99))
}
