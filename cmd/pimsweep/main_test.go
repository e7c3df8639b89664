package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hostpim"
	"repro/internal/parcel"
	"repro/internal/parcelsys"
	"repro/internal/sweep"
	"repro/internal/testutil"
)

func TestParseAxisList(t *testing.T) {
	got, err := parseAxis("1,2, 4,8")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float64{1, 2, 4, 8}) {
		t.Errorf("got %v", got)
	}
}

func TestParseAxisLinspace(t *testing.T) {
	got, err := parseAxis("0:1:5")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v", got)
	}
}

func TestParseAxisErrors(t *testing.T) {
	for _, bad := range []string{"", "a,b", "0:1", "0:1:0", "0:x:3"} {
		if _, err := parseAxis(bad); err == nil {
			t.Errorf("axis %q accepted", bad)
		}
	}
}

func TestHostPIMSweep(t *testing.T) {
	if err := run([]string{"hostpim", "-pct", "0,0.5,1", "-nodes", "1,8"}); err != nil {
		t.Fatal(err)
	}
}

func TestHostPIMSweepSimulated(t *testing.T) {
	if err := run([]string{"hostpim", "-sim", "-w", "1e6", "-pct", "0.5", "-nodes", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestParcelSysSweep(t *testing.T) {
	if err := run([]string{"parcelsys", "-parallelism", "1,8", "-latency", "100",
		"-nodes", "4", "-horizon", "5000"}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := run([]string{"hostpim", "-pct", "0.5", "-nodes", "4", "-csv", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty CSV")
	}
}

func TestBadModel(t *testing.T) {
	if err := run([]string{"nonsense"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	err := run(nil)
	if err == nil {
		t.Fatal("missing model accepted")
	}
	if !strings.Contains(err.Error(), "hostpim|parcelsys|scenario") {
		t.Errorf("usage does not list every subcommand: %v", err)
	}
}

// TestFractionalIntAxisRejected: a fractional value on an integer field's
// axis fails the sweep before any point runs, naming the field, instead
// of running the truncated value under the fractional label.
func TestFractionalIntAxisRejected(t *testing.T) {
	for _, c := range []struct {
		args  []string
		field string
	}{
		{[]string{"hostpim", "-pct", "0.5", "-nodes", "4,4.5"}, "nodes"},
		{[]string{"parcelsys", "-parallelism", "1,2.5", "-latency", "100", "-horizon", "2000"}, "parallelism"},
		{[]string{"scenario", "-preset", "machine-gups", "-backend", "machine", "-quick", "-sweep", "updates=16,16.5"}, "updates"},
	} {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), `field "`+c.field+`" takes whole numbers`) {
			t.Errorf("%v: err = %v, want the %s field's whole-number error", c.args, err, c.field)
		}
	}
}

// captureStdout runs fn, failing the test on error, and returns stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	out, err := testutil.CaptureStdout(t, fn)
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out)
	}
	return out
}

func TestReplicationsEmitAggregateTable(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"parcelsys", "-parallelism", "1,4", "-latency", "100",
			"-nodes", "4", "-horizon", "5000", "-replications", "3"})
	})
	for _, want := range []string{"3 replications (95% CI)", "ratio mean", "ratio ±ci"} {
		if !strings.Contains(out, want) {
			t.Errorf("aggregate table missing %q:\n%s", want, out)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"hostpim", "-pct", "0.5", "-nodes", "4,8",
			"-replications", "2", "-json"})
	})
	var decoded []map[string]any
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(decoded) != 1 || decoded[0]["id"] != "scenario-sweep" {
		t.Fatalf("unexpected JSON: %v", decoded)
	}
	metrics, ok := decoded[0]["metrics"].(map[string]any)
	if !ok || metrics["pctwl=0.5,nodes=4/gain"] == nil {
		t.Errorf("per-point metrics missing: %v", decoded[0]["metrics"])
	}
	aggs, ok := decoded[0]["aggregates"].(map[string]any)
	if !ok || aggs["pctwl=0.5,nodes=8/gain"] == nil {
		t.Errorf("per-point aggregates missing")
	}
}

// sweepMetrics runs a sweep with -json and returns its per-point metrics.
func sweepMetrics(t *testing.T, args []string) map[string]float64 {
	t.Helper()
	out := captureStdout(t, func() error { return run(append(args, "-json")) })
	var decoded []struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &decoded); err != nil || len(decoded) != 1 {
		t.Fatalf("%v: bad JSON (%v):\n%s", args, err, out)
	}
	return decoded[0].Metrics
}

// TestAliasesMatchModels pins each alias to the model call it stands for:
// every swept metric equals hostpim.Analytic, hostpim.Simulate or
// parcelsys.Run on the model's DefaultParams with the same flags and the
// grid's point seeds. This ties the presets' base values to the model
// defaults the aliases rely on.
func TestAliasesMatchModels(t *testing.T) {
	check := func(args []string, axes []sweep.Axis, want func(pt sweep.Point) (map[string]float64, error)) {
		t.Helper()
		got := sweepMetrics(t, args)
		g, err := sweep.NewGrid(1, axes...)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, pt := range g.Points() {
			w, err := want(pt)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s=%g,%s=%g/", axes[0].Name, pt.Get(axes[0].Name), axes[1].Name, pt.Get(axes[1].Name))
			for m, v := range w {
				if have, ok := got[key+m]; !ok || have != v {
					t.Errorf("%v: %s%s = %v (present %v), model says %v", args, key, m, have, ok, v)
				}
				n++
			}
		}
		if len(got) != n {
			t.Errorf("%v: %d metrics, want %d", args, len(got), n)
		}
	}

	hostAxes := []sweep.Axis{{Name: "pctwl", Values: []float64{0, 0.4, 1}}, {Name: "nodes", Values: []float64{1, 8}}}
	for _, sim := range []bool{false, true} {
		for _, tc := range []struct {
			flags []string
			set   func(p *hostpim.Params)
		}{
			{nil, func(*hostpim.Params) {}},
			{[]string{"-overlap"}, func(p *hostpim.Params) { p.Overlap = true }},
			{[]string{"-fixedmiss"}, func(p *hostpim.Params) { p.Control = hostpim.ControlFixedMiss }},
			{[]string{"-overlap", "-fixedmiss", "-pmiss", "0.2", "-mix", "0.4"}, func(p *hostpim.Params) {
				p.Overlap, p.Control, p.Pmiss, p.MixLS = true, hostpim.ControlFixedMiss, 0.2, 0.4
			}},
		} {
			args := append([]string{"hostpim", "-pct", "0,0.4,1", "-nodes", "1,8"}, tc.flags...)
			if sim {
				args = append(args, "-sim", "-w", "1e6")
			}
			check(args, hostAxes, func(pt sweep.Point) (map[string]float64, error) {
				p := hostpim.DefaultParams()
				p.PctWL, p.N = pt.Get("pctwl"), pt.GetInt("nodes")
				tc.set(&p)
				var r hostpim.Result
				var err error
				if sim {
					p.W = 1e6
					r, err = hostpim.Simulate(p, hostpim.SimOptions{Seed: pt.Seed})
				} else {
					r, err = hostpim.Analytic(p)
				}
				return map[string]float64{"gain": r.Gain, "total": r.Total, "relative": r.Relative}, err
			})
		}
	}

	parcelAxes := []sweep.Axis{{Name: "parallelism", Values: []float64{1, 4}}, {Name: "latency", Values: []float64{50, 500}}}
	for _, software := range []bool{false, true} {
		args := []string{"parcelsys", "-parallelism", "1,4", "-latency", "50,500", "-nodes", "4", "-horizon", "5000"}
		if software {
			args = append(args, "-software")
		}
		check(args, parcelAxes, func(pt sweep.Point) (map[string]float64, error) {
			p := parcelsys.DefaultParams()
			p.Nodes, p.Horizon, p.Seed = 4, 5000, pt.Seed
			p.Parallelism, p.Latency = pt.GetInt("parallelism"), pt.Get("latency")
			if software {
				p.Overhead = parcel.SoftwareOnly()
			}
			r, err := parcelsys.Run(p)
			return map[string]float64{"ratio": r.Ratio, "ctrl_idle": r.Control.IdleFrac,
				"test_idle": r.Test.IdleFrac, "efficiency": 1 - r.Test.IdleFrac}, err
		})
	}

	// An invalid point reports its validation error, and a remote-free
	// parcelsys point says where it belongs.
	if err := run([]string{"hostpim", "-nodes", "0"}); err == nil || !strings.Contains(err.Error(), "N = 0") {
		t.Errorf("hostpim -nodes 0: want the N = 0 validation error, got %v", err)
	}
	if err := run([]string{"parcelsys", "-remote", "0"}); err == nil || !strings.Contains(err.Error(), "hostpim") {
		t.Errorf("parcelsys -remote 0: got %v", err)
	}
}

func TestParallelFlagDeterministic(t *testing.T) {
	// Replicate-level parallelism must not change any emitted byte.
	args := []string{"parcelsys", "-parallelism", "1,4", "-latency", "50",
		"-nodes", "4", "-horizon", "4000", "-replications", "4"}
	serial := captureStdout(t, func() error { return run(append([]string{args[0], "-parallel", "1"}, args[1:]...)) })
	par := captureStdout(t, func() error { return run(append([]string{args[0], "-parallel", "8"}, args[1:]...)) })
	if serial != par {
		t.Errorf("-parallel changed output:\n--- serial ---\n%s--- parallel ---\n%s", serial, par)
	}
}

func TestCSVWithReplications(t *testing.T) {
	// CSV must come from the base-seed replicate regardless of scheduling.
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := run([]string{"hostpim", "-pct", "0.5", "-nodes", "4", "-csv", path,
		"-replications", "3", "-parallel", "3"}); err != nil {
		t.Fatal(err)
	}
	single := filepath.Join(t.TempDir(), "single.csv")
	if err := run([]string{"hostpim", "-pct", "0.5", "-nodes", "4", "-csv", single}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("replicated CSV differs from single-run CSV:\n%s\nvs\n%s", a, b)
	}
}

func TestScenarioSweep(t *testing.T) {
	if err := run([]string{"scenario", "-quick", "-preset", "fig11-point", "-backend", "queueing",
		"-sweep", "parallelism=1,4", "-sweep", "latency=100,1000"}); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioSweepSim(t *testing.T) {
	if err := run([]string{"scenario", "-quick", "-preset", "fig11-point", "-backend", "sim",
		"-sweep", "parallelism=1,4", "-sweep", "horizon=5000"}); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioSweepErrors(t *testing.T) {
	if err := run([]string{"scenario", "-preset", "nope", "-sweep", "latency=1"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if err := run([]string{"scenario", "-backend", "warp", "-sweep", "latency=1"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if err := run([]string{"scenario", "-sweep", "warp-drive=1"}); err == nil {
		t.Fatal("unknown field accepted")
	}
	if err := run([]string{"scenario"}); err == nil {
		t.Fatal("missing -sweep accepted")
	}
	if err := run([]string{"scenario", "-sweep", "latency"}); err == nil {
		t.Fatal("malformed -sweep accepted")
	}
}

func TestScenarioSweepCSVAndReplications(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	out, err := testutil.CaptureStdout(t, func() error {
		return run([]string{"scenario", "-quick", "-preset", "fig11-point", "-backend", "queueing",
			"-sweep", "parallelism=1,4", "-replications", "3", "-csv", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3 replications") {
		t.Errorf("missing aggregate table:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ratio") {
		t.Errorf("CSV missing metric column: %s", data)
	}
}

// captureStderr redirects os.Stderr around fn.
func captureStderr(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	defer func() { os.Stderr = old }()
	ch := make(chan string, 1)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		ch <- b.String()
	}()
	runErr := fn()
	w.Close()
	os.Stderr = old
	return <-ch, runErr
}

func TestRetriesAndVerboseStats(t *testing.T) {
	// A healthy sweep with -retries on: nothing retries, and -v reports
	// the attempt and cache counters.
	errOut, err := captureStderr(t, func() error {
		_, err := testutil.CaptureStdout(t, func() error {
			return run([]string{"hostpim", "-pct", "0,1", "-nodes", "2",
				"-retries", "2", "-retrybackoff", "1ms", "-v"})
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "retries: 2 attempts, 0 retried, 0 recovered") {
		t.Errorf("verbose retry stats missing or wrong:\n%s", errOut)
	}
	if !strings.Contains(errOut, "cache:") {
		t.Errorf("verbose cache stats missing:\n%s", errOut)
	}
}

func TestRetriesExhaustDegradesGracefully(t *testing.T) {
	// faultdrop=1 on the machine backend loses every parcel: the point
	// fails on each attempt, retries exhaust, and the sweep still renders
	// with "-" cells rather than aborting (single-point sweeps abort when
	// everything failed, so sweep two points where one is healthy).
	out, err := testutil.CaptureStdout(t, func() error {
		return run([]string{"scenario", "-quick", "-preset", "machine-treesum-faults",
			"-backend", "machine", "-sweep", "faultdrop=0,1",
			"-retries", "1", "-retrybackoff", "1ms"})
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "-") || !strings.Contains(out, "failed") {
		t.Errorf("degraded sweep output missing failure markers:\n%s", out)
	}
}
