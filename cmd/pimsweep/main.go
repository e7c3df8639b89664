// Command pimsweep runs custom parameter sweeps of the scenario models and
// emits a table (and optionally CSV) — the tool for design-space questions
// the canned pimstudy experiments don't answer. Sweeps execute through the
// concurrent engine (internal/engine): each sweep is wrapped as an ad-hoc
// experiment, so it gets replication with derived seeds, statistical
// aggregation (mean / min / max / 95% CI per grid point), and structured
// JSON output for free.
//
// Usage:
//
//	pimsweep scenario  -preset fig11-point -backend sim \
//	                   -sweep parallelism=1,2,4,8 -sweep latency=10:1000:4 [flags]
//	pimsweep scenario  -preset machine-dram -backend machine \
//	                   -sweep pagepolicy=0,1,2 -sweep updates=256,1024,4096 [flags]
//	pimsweep hostpim   -pct 0:1:11 -nodes 1,2,4,8,16,32,64 [flags]
//	pimsweep parcelsys -parallelism 1,2,4,8 -latency 10,100,1000 [flags]
//
// Axis syntax: either a comma list ("1,2,4,8") or "lo:hi:n" for n evenly
// spaced values ("0:1:11"). Every combination of the axes is run.
//
// The scenario subcommand starts from a named preset (internal/scenario)
// and sweeps any of its fields by name on any model backend; the metric
// columns are whatever that backend reports for the scenario. hostpim and
// parcelsys are aliases over the same sweep, for the paper's two studies:
//
//	hostpim    preset paper-baseline, backend analytic (-sim: sim)
//	           axes -pct → pctwl, -nodes → nodes
//	           fixed -pmiss → pmiss, -mix → mixls, -w → w, -overlap → overlap,
//	           -fixedmiss → the fixed-miss control policy
//	parcelsys  preset fig11-point, backend sim, mixls 0.3
//	           axes -parallelism → parallelism, -latency → latency
//	           fixed -nodes → nodes, -remote → remote, -mem → memcycles,
//	           -horizon → horizon, -software → software
//
// Common flags:
//
//	-seed N          base seed (default 1)
//	-csv FILE        also write the table as CSV
//	-workers N       parallel runs within one sweep (default GOMAXPROCS)
//	-parallel N      replicated sweeps run concurrently (default GOMAXPROCS)
//	-replications N  sweep repetitions with derived seeds; a mean/CI table
//	                 follows the base table (default 1)
//	-json            emit structured JSON instead of tables
//	-runtimeout D    wall-clock watchdog per sweep replicate (0 = none)
//	-retries N       re-run a failed sweep point up to N times, each attempt
//	                 with a seed derived from (point seed, attempt) and
//	                 exponential backoff between attempts (default 0)
//	-retrybackoff D  base backoff between point retries (default 100ms)
//	-v               print retry counts and result-cache statistics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hostpim"
	"repro/internal/parcelsys"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pimsweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: pimsweep hostpim|parcelsys|scenario [flags]")
	}
	switch args[0] {
	case "hostpim":
		return runHostPIM(args[1:])
	case "parcelsys":
		return runParcelSys(args[1:])
	case "scenario":
		return runScenarioSweep(args[1:])
	default:
		return fmt.Errorf("unknown model %q (want hostpim, parcelsys, or scenario)", args[0])
	}
}

// parseAxis accepts "a,b,c" lists or "lo:hi:n" linspace syntax.
func parseAxis(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("empty axis")
	}
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("axis %q: want lo:hi:n", s)
		}
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		n, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || n <= 0 {
			return nil, fmt.Errorf("axis %q: bad lo:hi:n", s)
		}
		return sweep.Linspace(lo, hi, n), nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("axis %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// engineFlags are the execution flags shared by every sweep subcommand.
type engineFlags struct {
	seed         *uint64
	csvPath      *string
	workers      *int
	parallel     *int
	replications *int
	jsonOut      *bool
	runTimeout   *time.Duration
	retries      *int
	retryBackoff *time.Duration
	verbose      *bool
	retryStats   sweep.RetryStats
}

func addEngineFlags(fs *flag.FlagSet) *engineFlags {
	return &engineFlags{
		seed:         fs.Uint64("seed", 1, "base seed"),
		csvPath:      fs.String("csv", "", "write CSV to this file"),
		workers:      fs.Int("workers", 0, "parallel runs within one sweep (0 = GOMAXPROCS)"),
		parallel:     fs.Int("parallel", 0, "replicated sweeps run concurrently (0 = GOMAXPROCS)"),
		replications: fs.Int("replications", 1, "sweep repetitions with derived seeds"),
		jsonOut:      fs.Bool("json", false, "emit structured JSON"),
		runTimeout:   fs.Duration("runtimeout", 0, "wall-clock watchdog per sweep replicate (0 = none)"),
		retries:      fs.Int("retries", 0, "re-run a failed sweep point up to N times with derived seeds"),
		retryBackoff: fs.Duration("retrybackoff", 100*time.Millisecond, "base backoff between point retries (doubles, capped at 32x)"),
		verbose:      fs.Bool("v", false, "print retry and cache statistics after the sweep"),
	}
}

// appendPointKey appends a grid point's stable metric-name prefix
// ("pctwl=0.5,nodes=8") to buf without going through fmt.
func appendPointKey(buf []byte, axes []sweep.Axis, p sweep.Point) []byte {
	for i, a := range axes {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, a.Name...)
		buf = append(buf, '=')
		// 'g' with precision -1 matches the %g the keys historically used.
		buf = strconv.AppendFloat(buf, p.Get(a.Name), 'g', -1, 64)
	}
	return buf
}

// runHostPIM is the study-1 alias: the paper-baseline preset with the
// fixed flags written into its fields and -pct and -nodes as the pctwl
// and nodes axes, on the analytic backend (sim with -sim).
func runHostPIM(args []string) error {
	fs := flag.NewFlagSet("pimsweep hostpim", flag.ContinueOnError)
	pctAxis := fs.String("pct", "0:1:11", "axis: %WL values (field pctwl)")
	nodeAxis := fs.String("nodes", "1,2,4,8,16,32,64", "axis: PIM node counts (field nodes)")
	pmiss := fs.Float64("pmiss", 0.1, "HWP cache miss rate (field pmiss)")
	mix := fs.Float64("mix", 0.3, "load/store fraction (field mixls)")
	w := fs.Float64("w", 100e6, "total operations (field w)")
	overlap := fs.Bool("overlap", false, "overlap HWP and LWP phases (field overlap)")
	fixedMiss := fs.Bool("fixedmiss", false, "fixed-miss control policy (default locality-aware)")
	useSim := fs.Bool("sim", false, "run the DES simulation instead of the closed form (backend sim)")
	ef := addEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := scenario.MustFind("paper-baseline")
	base.Machine.Pmiss = *pmiss
	base.Workload.MixLS = *mix
	base.Workload.W = *w
	base.Overlap = *overlap
	if *fixedMiss {
		base.Control = hostpim.ControlFixedMiss
	}
	backend := "analytic"
	if *useSim {
		backend = "sim"
	}
	pct, err := fieldAxis("pctwl", *pctAxis)
	if err != nil {
		return err
	}
	n, err := fieldAxis("nodes", *nodeAxis)
	if err != nil {
		return err
	}
	return scenarioSweep(ef, base, backend, false, []sweep.Axis{pct, n})
}

// runParcelSys is the study-2 alias: the fig11-point preset with the
// fixed flags written into its fields and -parallelism and -latency as
// axes, on the sim backend.
func runParcelSys(args []string) error {
	fs := flag.NewFlagSet("pimsweep parcelsys", flag.ContinueOnError)
	parAxis := fs.String("parallelism", "1,2,4,8,16,32", "axis: parcels per node (field parallelism)")
	latAxis := fs.String("latency", "10,100,1000", "axis: one-way latency in cycles (field latency)")
	nodes := fs.Int("nodes", 16, "node count (field nodes)")
	remote := fs.Float64("remote", 0.3, "remote access fraction (field remote)")
	mem := fs.Float64("mem", 10, "local memory cycles (field memcycles)")
	horizon := fs.Float64("horizon", 100000, "simulated cycles (field horizon)")
	software := fs.Bool("software", false, "software-only parcel overheads (field software)")
	ef := addEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == 0 {
		// Without remote accesses the point is a study-1 scenario, which
		// would fail as one without work (W = 0).
		return fmt.Errorf("parcelsys: -remote 0 is a study-1 point; sweep it with hostpim")
	}
	base := scenario.MustFind("fig11-point")
	base.Machine.N = *nodes
	base.Workload.RemoteFrac = *remote
	base.Machine.MemCycles = *mem
	base.Workload.Horizon = *horizon
	base.Software = *software
	base.Workload.MixLS = parcelsys.DefaultParams().MixMem
	par, err := fieldAxis("parallelism", *parAxis)
	if err != nil {
		return err
	}
	lat, err := fieldAxis("latency", *latAxis)
	if err != nil {
		return err
	}
	return scenarioSweep(ef, base, "sim", false, []sweep.Axis{par, lat})
}

func runScenarioSweep(args []string) error {
	fs := flag.NewFlagSet("pimsweep scenario", flag.ContinueOnError)
	preset := fs.String("preset", "paper-baseline", "scenario preset to start from")
	backendName := fs.String("backend", "sim", "model backend to run")
	quick := fs.Bool("quick", false, "clamp workload sizes and horizons (quick mode)")
	var sweeps []string
	fs.Func("sweep", "field=axis to sweep, repeatable (see sweepable fields)", func(v string) error {
		sweeps = append(sweeps, v)
		return nil
	})
	ef := addEngineFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: pimsweep scenario -preset <name> -backend <name> -sweep field=axis [-sweep ...]\n\npresets:\n")
		for _, s := range scenario.Presets() {
			fmt.Fprintf(fs.Output(), "  %-20s %s\n", s.Name, s.About)
		}
		fmt.Fprintf(fs.Output(), "\nbackends: %v\n\nsweepable fields:\n", scenario.BackendNames())
		for _, f := range scenario.Fields() {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", f.Name, f.About)
		}
		fmt.Fprintf(fs.Output(), "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	base, err := scenario.Find(*preset)
	if err != nil {
		return err
	}
	if _, err := scenario.FindBackend(*backendName); err != nil {
		return err
	}
	if len(sweeps) == 0 {
		return fmt.Errorf("need at least one -sweep field=axis")
	}
	var axes []sweep.Axis
	for _, spec := range sweeps {
		name, axisSpec, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-sweep %q: want field=axis", spec)
		}
		a, err := fieldAxis(name, axisSpec)
		if err != nil {
			return err
		}
		axes = append(axes, a)
	}
	return scenarioSweep(ef, base, *backendName, *quick, axes)
}

// fieldAxis parses one field's axis spec into a grid axis, checking the
// name against the scenario field registry and each value against the
// field (an integer field takes whole numbers only).
func fieldAxis(name, spec string) (sweep.Axis, error) {
	if _, err := scenario.GetField(scenario.Scenario{}, name); err != nil {
		return sweep.Axis{}, err
	}
	vals, err := parseAxis(spec)
	if err != nil {
		return sweep.Axis{}, err
	}
	for _, v := range vals {
		if err := scenario.SetField(&scenario.Scenario{}, name, v); err != nil {
			return sweep.Axis{}, err
		}
	}
	return sweep.Axis{Name: name, Values: vals}, nil
}

// scenarioSweep is the one sweep path: every grid point writes its axis
// values into the fields of base and runs it on the named backend. The
// sweep runs through the engine as an ad-hoc experiment, which emits the
// table (or JSON), the replication aggregate table, and CSV from the
// base-seed replicate.
func scenarioSweep(ef *engineFlags, base scenario.Scenario, backend string, quick bool, axes []sweep.Axis) error {
	title := fmt.Sprintf("scenario sweep: %s on %s", base.Name, backend)
	runPoint := sweep.WithRetries(func(pt sweep.Point) (map[string]float64, error) {
		s := base
		for _, a := range axes {
			if err := scenario.SetField(&s, a.Name, pt.Get(a.Name)); err != nil {
				return nil, err
			}
		}
		r, err := scenario.Run(s, backend, scenario.Config{Seed: pt.Seed, Quick: quick})
		if err != nil {
			return nil, err
		}
		return r.Metrics, nil
	}, *ef.retries, *ef.retryBackoff, nil, &ef.retryStats)
	// The replicates run concurrently (and a watchdogged one may finish
	// after the engine returns), so the base-seed table is guarded.
	var mu sync.Mutex
	var baseTable *report.Table
	exp := &core.Experiment{
		ID:         "scenario-sweep",
		Title:      title,
		PaperClaim: "custom sweep (not a paper artifact)",
		Run: func(cfg core.Config, w io.Writer) (*core.Outcome, error) {
			g, err := sweep.NewGrid(cfg.Seed, axes...)
			if err != nil {
				return nil, err
			}
			// A sweep aborts only when every point failed (an injected
			// crash, the livelock guard, the watchdog); otherwise the
			// surviving points carry it and a note names the first failure.
			outs := g.Run(cfg.Workers, runPoint)
			failed := 0
			o := &core.Outcome{Metrics: make(map[string]float64)}
			for _, out := range outs {
				if out.Err != nil {
					failed++
					continue
				}
				key := string(appendPointKey(nil, axes, out.Point))
				for m, v := range out.Metrics {
					o.Metrics[key+"/"+m] = v
				}
			}
			if failed == len(outs) {
				return nil, fmt.Errorf("all %d sweep points failed: %w", failed, sweep.FirstError(outs))
			}
			t := pointTable(title, axes, g.Points(), o.Metrics, []string{""},
				func(v float64) []any { return []any{v} })
			if err := t.Render(w); err != nil {
				return nil, err
			}
			if failed > 0 {
				if _, err := fmt.Fprintf(w, "%d of %d points failed; first: %v\n",
					failed, len(outs), sweep.FirstError(outs)); err != nil {
					return nil, err
				}
			}
			if cfg.Seed == *ef.seed {
				mu.Lock()
				baseTable = t
				mu.Unlock()
			}
			return o, nil
		},
	}

	cfg := core.Config{Seed: *ef.seed, Workers: *ef.workers}
	cache := engine.NewCache()
	eng := engine.New(engine.Options{Workers: *ef.parallel, Replications: *ef.replications,
		RunTimeout: *ef.runTimeout, Cache: cache})
	// When replicated sweeps run concurrently, pin each sweep's inner pool
	// to one worker (unless -workers was set explicitly) so total
	// goroutines stay ~GOMAXPROCS instead of its square.
	if cfg.Workers == 0 && eng.Options().Workers > 1 && eng.Options().Replications > 1 {
		cfg.Workers = 1
	}
	results, err := eng.Run(cfg, []*core.Experiment{exp})
	if *ef.verbose {
		st := cache.Stats()
		fmt.Fprintf(os.Stderr,
			"pimsweep: retries: %d attempts, %d retried, %d recovered; cache: %d hits, %d misses, %d evictions\n",
			ef.retryStats.Attempts.Load(), ef.retryStats.Retries.Load(), ef.retryStats.Recovered.Load(),
			st.Hits, st.Misses, st.Evictions)
	}
	if err != nil {
		return err
	}
	// Render to stdout before touching the CSV path: a bad -csv target
	// must not swallow a completed sweep's results.
	if *ef.jsonOut {
		if err := engine.WriteJSON(os.Stdout, results); err != nil {
			return err
		}
	} else {
		r := results[0]
		if _, err := os.Stdout.Write(r.Output); err != nil {
			return err
		}
		if reps := eng.Options().Replications; reps > 1 {
			g, err := sweep.NewGrid(*ef.seed, axes...)
			if err != nil {
				return err
			}
			at := pointTable(fmt.Sprintf("%s — %d replications (%.0f%% CI)", title, reps, eng.Options().Level*100),
				axes, g.Points(), r.Aggregates, []string{" mean", " ±ci"},
				func(a engine.Aggregate) []any { return []any{a.Mean, a.CI} })
			fmt.Println()
			if err := at.Render(os.Stdout); err != nil {
				return err
			}
		}
	}
	if *ef.csvPath == "" {
		return nil
	}
	f, err := os.Create(*ef.csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	mu.Lock()
	defer mu.Unlock()
	return baseTable.RenderCSV(f)
}

// pointTable lays a sweep's per-point values out as a table: one row per
// grid point, its axis values, then one column per metric and suffix in
// cols, filled by cells from the value stored under "pointkey/metric".
// Metric names come from the keys (a point key is slash-free) and are
// sorted; the set can vary across points when a sweep crosses a
// scenario-kind boundary (e.g. remote 0 -> 0.3), and a point without a
// metric, or one that failed, renders "-" there rather than a zero.
func pointTable[V any](title string, axes []sweep.Axis, points []sweep.Point, vals map[string]V,
	cols []string, cells func(V) []any) *report.Table {
	seen := map[string]bool{}
	for k := range vals {
		if _, metric, ok := strings.Cut(k, "/"); ok {
			seen[metric] = true
		}
	}
	metrics := make([]string, 0, len(seen))
	for m := range seen {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	headers := make([]string, 0, len(axes)+len(cols)*len(metrics))
	for _, a := range axes {
		headers = append(headers, a.Name)
	}
	for _, m := range metrics {
		for _, c := range cols {
			headers = append(headers, m+c)
		}
	}
	t := report.NewTable(title, headers...)
	row := make([]any, 0, len(headers))
	var keyBuf []byte
	for _, p := range points {
		row = row[:0]
		for _, a := range axes {
			row = append(row, p.Get(a.Name))
		}
		// Build "pointkey/metric" in a reused buffer; the map lookup with
		// string(keyBuf) does not allocate.
		keyBuf = appendPointKey(keyBuf[:0], axes, p)
		keyBuf = append(keyBuf, '/')
		base := len(keyBuf)
		for _, m := range metrics {
			keyBuf = append(keyBuf[:base], m...)
			v, ok := vals[string(keyBuf)]
			if !ok {
				for range cols {
					row = append(row, "-")
				}
				continue
			}
			row = append(row, cells(v)...)
		}
		t.AddRow(row...)
	}
	return t
}
