package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// loadServer runs an in-process pimserve core for the generator to hit.
func loadServer(t *testing.T, opts serve.Options) (*serve.Server, string) {
	t.Helper()
	s := serve.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts.URL
}

func TestLoadAgainstServer(t *testing.T) {
	s, url := loadServer(t, serve.Options{})
	var out bytes.Buffer
	err := run([]string{
		"-addr", url,
		"-requests", "60",
		"-rate", "2000",
		"-seedpool", "4",
		"-preset", "machine-gups",
		"-field", "nodes=4", "-field", "updates=8",
		"-json",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad report %q: %v", out.String(), err)
	}
	if rep.OK+rep.Shed+rep.Deadlined != 60 || rep.Errors != 0 {
		t.Errorf("report = %+v", rep)
	}
	// 60 requests over 4 distinct seeds: nearly everything after the first
	// four is a coalesce or a cache hit.
	if rep.CacheHits+rep.Coalesced == 0 {
		t.Errorf("no duplicate-spec reuse observed: %+v", rep)
	}
	if m := s.Metrics(); m.Received != 60 {
		t.Errorf("server saw %d requests, want 60", m.Received)
	}
}

func TestLoadMMPPShedsUnderOverload(t *testing.T) {
	// One worker, depth-1 queue, a run stub is not reachable from here —
	// use a tiny real preset and a burst far beyond capacity instead.
	_, url := loadServer(t, serve.Options{Workers: 1, QueueDepth: 1})
	var out bytes.Buffer
	err := run([]string{
		"-addr", url,
		"-requests", "80",
		"-rate", "4000",
		"-shape", "mmpp",
		"-burstdwell", "50ms",
		"-seedpool", "80", // all-distinct specs: no coalescing relief
		"-preset", "machine-gups",
		"-field", "nodes=8", "-field", "updates=64",
		"-json",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("transport errors under overload: %+v", rep)
	}
	t.Logf("overload report: ok %d shed %d p99 %.2fms", rep.OK, rep.Shed, rep.P99MS)
}

// TestStalledGeneratorShowsLateness: a generator that falls behind its
// schedule must not hide it. The pacing sleep stalls 60ms once, so every
// request goes out at least that late: the report's max_late_ms says so,
// and latencies, timed from the scheduled send time, include the stall.
func TestStalledGeneratorShowsLateness(t *testing.T) {
	const stall = 60 * time.Millisecond
	orig := sleepUntil
	t.Cleanup(func() { sleepUntil = orig })
	stalled := false
	sleepUntil = func(at time.Time) {
		orig(at)
		if !stalled {
			stalled = true
			time.Sleep(stall)
		}
	}
	_, url := loadServer(t, serve.Options{})
	var out bytes.Buffer
	err := run([]string{
		"-addr", url,
		"-requests", "5",
		"-rate", "5000",
		"-preset", "machine-gups",
		"-field", "nodes=4", "-field", "updates=8",
		"-json",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	var fields map[string]any
	if err := json.Unmarshal(out.Bytes(), &fields); err != nil {
		t.Fatalf("bad report %q: %v", out.String(), err)
	}
	if _, ok := fields["max_late_ms"]; !ok {
		t.Fatalf("report has no max_late_ms field: %s", out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	minMS := float64(stall) / float64(time.Millisecond)
	if rep.MaxLateMS < minMS {
		t.Errorf("max_late_ms = %.2f, want >= %.0f after a %v stall", rep.MaxLateMS, minMS, stall)
	}
	if rep.OK == 0 || rep.MaxMS < minMS {
		t.Errorf("ok %d, max latency %.2fms: want latencies timed from the schedule, >= %.0fms", rep.OK, rep.MaxMS, minMS)
	}
}

func TestBadFlags(t *testing.T) {
	cases := [][]string{
		{"-requests", "0"},
		{"-seedpool", "0"},
		{"-shape", "fractal"},
		{"-field", "nodes"},
		{"-rate", "0"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestReportAgainstDeadServer(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-addr", "127.0.0.1:1", "-requests", "3", "-rate", "1000"}, &out)
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("err = %v, want transport failures reported", err)
	}
}

// TestPercentileNearestRank pins the nearest-rank definition
// (ceil(p*n)-1, clamped): the old floor-of-linear-index form under-read
// tail quantiles — p99 of 10 samples returned the 9th-of-10 value, never
// the max.
func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 0.99, 0},
		{"n=1 p50", []float64{42}, 0.50, 42},
		{"n=1 p99", []float64{42}, 0.99, 42},
		{"n=1 p100", []float64{42}, 1.0, 42},
		// The pinned regression: p99 of 10 samples is the max (rank
		// ceil(9.9) = 10), not the 9th-of-10 the old code returned.
		{"n=10 p99", ten, 0.99, 10},
		{"n=10 p100", ten, 1.0, 10},
		{"n=10 p50", ten, 0.50, 5},
		{"n=10 p90", ten, 0.90, 9},
		{"n=10 p0", ten, 0, 1},
		{"n=4 p50", []float64{1, 2, 3, 4}, 0.50, 2},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %g) = %g, want %g", c.name, c.sorted, c.p, got, c.want)
		}
	}
}
