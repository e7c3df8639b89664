// Command perfbench is the repository's benchmark. It runs one of three
// pinned workloads against the program's own packages, checks the outputs,
// and prints every metric by name with its unit; the last line of standard
// output is one JSON object for tools that collect the results.
//
//	perfbench --workload repro|bigrun|serve-cold --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics from a
// separate traced run, whose spans are written to
// .bench_build/traces/<workload>-<seed>.jsonl. README.md describes the
// workloads, the metrics and how they relate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// processStart approximates the process start for the report's own
// set-up line; setup_s itself is timed by the parent of each probe.
var processStart = time.Now()

// metricDef names one reported metric; the lists below must match
// BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"max_rate_rps", "1/s", "higher"},
}

// perLayer lists the traced-run metrics. A workload that does not reach a
// layer reports 0 for it (README.md says which workload feeds which).
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }
	for _, id := range reproIDs {
		add("core."+id+".ms", "ms", "lower")
	}
	add("engine.run.p50_ms", "ms", "lower")
	add("engine.cache.hit_frac", "frac", "higher")
	add("engine.cache.evictions", "count", "lower")
	add("serve.decode.p50_us", "us", "lower")
	add("serve.rt.p50_ms", "ms", "lower")
	add("serve.rt.p99_ms", "ms", "lower")
	add("serve.flight.p50_ms", "ms", "lower")
	add("serve.flight.p99_ms", "ms", "lower")
	add("serve.overhead.p50_ms", "ms", "lower")
	add("serve.goodput_rps", "1/s", "higher")
	add("serve.shed", "count", "lower")
	add("serve.deadlines", "count", "lower")
	add("serve.coalesced", "count", "higher")
	for _, b := range scenarioBackends {
		add("scenario."+b+".p50_ms", "ms", "lower")
		add("scenario."+b+".p99_ms", "ms", "lower")
	}
	add("parcelsys.serial_ms", "ms", "lower")
	add("parcelsys.part1_ms", "ms", "lower")
	add("parcelsys.par_ms", "ms", "lower")
	add("parcelsys.par_speedup", "x", "higher")
	add("parcelsys.serial_alloc_mb", "MB", "lower")
	add("parcelsys.par_alloc_mb", "MB", "lower")
	add("hostpim.serial_ms", "ms", "lower")
	add("hostpim.par_ms", "ms", "lower")
	add("hostpim.par_speedup", "x", "higher")
	add("isa.serial_ms", "ms", "lower")
	add("isa.par_ms", "ms", "lower")
	add("isa.par_speedup", "x", "higher")
	add("isa.fast.minstr_per_s", "Minstr/s", "higher")
	add("isa.hooked.minstr_per_s", "Minstr/s", "higher")
	add("isa.hooked_ms", "ms", "lower")
	add("vm_minstr_per_s", "Minstr/s", "higher")
	add("trace.overhead_frac", "frac", "lower")
	return out
}()

// reproIDs are the experiment IDs core.<id>.ms is reported for; they must
// equal workloads.json's repro list (checked at start-up).
var reproIDs = []string{
	"table1", "fig4", "fig5", "fig6", "fig7", "fig9", "fig11", "fig12",
	"accuracy", "bandwidth", "sensitivity", "combined", "replication",
	"ablation-control", "ablation-overhead", "ablation-topology", "ablation-dram",
	"ablation-hotspot", "ablation-mtcontrol", "ablation-cache", "ablation-overlap",
}

var scenarioBackends = []string{"analytic", "queueing", "sim", "hybrid", "machine"}

// env is one invocation's settings.
type env struct {
	in       *inputs
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	nproc    int
}

// result accumulates one run's counts, checks and metrics.
type result struct {
	attempted, failed int
	problems          []string // failed output checks, one line each
	e2e, layer        map[string]float64
	notes             []string // extra report lines (fingerprint, inputs)
	tracer            *tracer
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op counts one attempted operation and, if it failed, why.
func (r *result) op(problems ...string) {
	r.attempted++
	if len(problems) > 0 {
		r.failed++
		r.problems = append(r.problems, problems...)
	}
}

// problem records a failed output check that is not tied to one operation.
func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload. setup does everything before the
// first timed operation; run measures for env.seconds (and, with
// env.trace, makes the separate traced run); close releases what setup
// started.
type workload interface {
	setup() error
	run(r *result) error
	close()
}

func newWorkload(e *env) (workload, error) {
	switch e.workload {
	case "repro":
		return &reproWorkload{env: e}, nil
	case "bigrun":
		return &bigrunWorkload{env: e}, nil
	case "serve-cold":
		return &serveWorkload{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want repro, bigrun or serve-cold)", e.workload)
}

// setupProbes is how many fresh processes set up the workload so that
// setup_s is a median that includes every process-global fill.
const setupProbes = 5

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "repro, bigrun or serve-cold")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	probe := fs.Bool("setup-probe", false, "set up the workload, print ready, and exit (used for setup_s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	in, err := loadInputs()
	if err != nil {
		return err
	}
	if fmt.Sprint(in.Repro.Experiments) != fmt.Sprint(reproIDs) {
		return fmt.Errorf("workloads.json: repro experiments %v differ from the reported core.<id>.ms set %v",
			in.Repro.Experiments, reproIDs)
	}
	e := &env{in: in, workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, nproc: runtime.NumCPU()}
	w, err := newWorkload(e)
	if err != nil {
		return err
	}

	err = w.setup()
	if err != nil {
		w.close()
		return fmt.Errorf("set-up: %w", err)
	}
	if *probe {
		fmt.Fprintln(stdout, "ready")
		w.close()
		return nil
	}
	mainSetup := time.Since(processStart)
	setups, err := setupSamples(args)
	if err != nil {
		w.close()
		return err
	}
	r := newResult()
	if e.trace {
		r.tracer = newTracer()
	}
	runErr := w.run(r)
	w.close()
	if runErr != nil {
		return runErr
	}
	r.e2e["setup_s"] = median(setups)
	r.note("setup: %d fresh processes %v s (median %.4f s); this process %.4f s",
		len(setups), fmtList(setups), median(setups), mainSetup.Seconds())
	if e.trace {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.jsonl", e.workload, e.seed))
		if err := r.tracer.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		r.note("spans: %d written to %s", len(r.tracer.snapshot()), path)
	}
	return report(stdout, e, r)
}

// setupSamples times setupProbes fresh processes of this binary from
// start until they report ready, one after another.
func setupSamples(args []string) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, append(append([]string(nil), args...), "--setup-probe")...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0)
		io.Copy(io.Discard, pipe)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		if readErr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe: want ready, got %q (%v)", line, readErr)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// report prints the human-readable report and, last, the JSON result
// line.
func report(w io.Writer, e *env, r *result) error {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %.0f  trace %t  nproc %d\n",
		e.workload, e.seed, e.seconds.Seconds(), e.trace, e.nproc)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	fmt.Fprintf(w, "ops attempted %d  failed %d  fail_frac %.6f\n",
		r.attempted, r.failed, failFrac(r.attempted, r.failed))
	defs, vals := endToEnd, r.e2e
	if e.trace {
		defs, vals = perLayer, r.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		v, ok := r.e2e[d.Name]
		if !ok {
			v, ok = r.layer[d.Name]
		}
		if ok {
			fmt.Fprintf(w, "metric %-28s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s = %v is not finite", d.Name, v)
		}
		out.Metrics[d.Name] = metric{v, d.Unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return fmt.Sprint(s)
}

// fingerprint hashes simulated results in a fixed order, so a change that
// only speeds the simulator up leaves it unchanged.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() *fingerprint { return &fingerprint{fnv.New64a()} }

func (f *fingerprint) bytes(b []byte) { f.h.Write(b); f.h.Write([]byte{0}) }

func (f *fingerprint) metrics(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f.h, "%s=%x;", k, math.Float64bits(m[k]))
	}
	f.h.Write([]byte{0})
}

func (f *fingerprint) String() string { return fmt.Sprintf("%016x", f.h.Sum64()) }

// sameMetrics reports whether two metric maps are bit-identical.
func sameMetrics(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// allocBytes returns the process's cumulative heap allocation.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
