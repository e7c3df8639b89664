package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/serve"
)

func TestRequestSequenceIsDeterminedBySeed(t *testing.T) {
	in, err := loadInputs()
	if err != nil {
		t.Fatal(err)
	}
	seq := func(seed uint64) []string {
		w := &serveWorkload{env: &env{in: in, seed: seed}}
		for _, p := range in.ServeCold.Pairs {
			w.specs = append(w.specs, scenario.Spec{Preset: p[0], Backend: p[1], Quick: true})
		}
		w.seedBase = rng.NewWithStream(seed, 0xc01d).Uint64()
		var out []string
		for i := 0; i < 2*len(w.specs); i++ {
			_, b := w.nextBody()
			out = append(out, string(b))
		}
		return out
	}
	a, b, c := seq(7), seq(7), seq(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("another seed gave the same request sequence")
	}
	// Each block of len(pairs) requests sends every pair once.
	n := len(in.ServeCold.Pairs)
	for blk := 0; blk < 2; blk++ {
		seen := map[string]bool{}
		for _, body := range a[blk*n : (blk+1)*n] {
			var sp scenario.Spec
			if err := json.Unmarshal([]byte(body), &sp); err != nil {
				t.Fatal(err)
			}
			seen[sp.Preset+"/"+sp.Backend] = true
		}
		if len(seen) != n {
			t.Fatalf("block %d sends %d distinct pairs, want %d", blk, len(seen), n)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample should give 0")
	}
	if median([]float64{4, 1, 3, 2}) != 2 {
		t.Error("median of an even sample should be the lower middle")
	}
}

func TestBlockP99(t *testing.T) {
	// Under two blocks: the plain nearest-rank p99.
	short := make([]float64, 1999)
	for i := range short {
		short[i] = float64(i + 1)
	}
	if got := blockP99(short); got != percentile(short, 99) {
		t.Fatalf("short series: %v, want %v", got, percentile(short, 99))
	}
	// Three blocks of 1000, one with a hiccup: the median block wins.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 1
		if i%1000 >= 990 {
			xs[i] = 2 // ten slow requests per block: p99 stays 1
		}
	}
	for i := 1000; i < 2000; i++ {
		xs[i] = 50
	}
	if got := blockP99(xs); got != 1 {
		t.Fatalf("blockP99 = %v, want 1", got)
	}
}

func TestPairMediansGeometricMean(t *testing.T) {
	// Pair 0 answers in about 0.1 ms, pair 1 in about 10 ms; the mix's
	// median would be one or the other, the pairs' geometric mean is 1.
	lat := []float64{0.1, 10, 0.2, 9, 0.1, 10, 0.05, 11, 0.1, 10}
	pairOf := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	pm := pairMedians(lat, pairOf, 2)
	if !reflect.DeepEqual(pm, []float64{0.1, 10}) {
		t.Fatalf("pair medians %v, want [0.1 10]", pm)
	}
	if got := geomean(pm); math.Abs(got-1) > 1e-12 {
		t.Fatalf("geomean %v, want 1", got)
	}
	// A pair no request reached is left out, not counted as 0.
	if pm := pairMedians(lat, pairOf, 3); !reflect.DeepEqual(pm, []float64{0.1, 10}) {
		t.Fatalf("with an unreached pair: %v, want [0.1 10]", pm)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: [10,50] counts once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // only [90,100] is inside root
		{Name: "grandchild", Parent: 1, Start: 12, End: 18},
	}
	got := selfTimes(spans)
	want := []time.Duration{50, 14, 30, 30, 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.begin("x", "", -1, 0); id != -1 {
		t.Fatalf("nil tracer begin = %d", id)
	}
	nilTracer.end(-1)
	tr := newTracer()
	root := tr.begin("engine.run", "", -1, 3)
	child := tr.begin("scenario.run", "sim", root, 3)
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Req != 3 || s[1].Detail != "sim" {
		t.Fatalf("spans %+v", s)
	}
	if s[0].End < s[1].End || s[1].Start < s[0].Start {
		t.Fatalf("child %+v not inside parent %+v", s[1], s[0])
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 {
		t.Fatalf("spans file: %v", err)
	}
}

func TestFailFracAccounting(t *testing.T) {
	r := newResult()
	r.op()
	r.op("paper check failed")
	r.op()
	r.problem("fingerprint mismatch outside any operation")
	if r.attempted != 3 || r.failed != 1 || len(r.problems) != 2 {
		t.Fatalf("attempted %d failed %d problems %d", r.attempted, r.failed, len(r.problems))
	}
	if got := failFrac(r.attempted, r.failed); got != 1.0/3 {
		t.Fatalf("fail_frac %v", got)
	}
	if failFrac(0, 0) != 0 {
		t.Fatal("fail_frac of nothing attempted")
	}

	// Every non-200 response, bad body, transport error and replay
	// mismatch fails its request, and each request counts once.
	ok, _ := json.Marshal(map[string]any{"key": "k", "metrics": map[string]float64{"total": 1}})
	samples := []sample{
		{Status: http.StatusOK, Body: ok, Done: time.Millisecond},
		{Status: http.StatusTooManyRequests, Body: []byte(`{"error":"overloaded"}`)},
		{Status: http.StatusGatewayTimeout},
		{Status: http.StatusInternalServerError},
		{Err: errors.New("connection reset")},
		{Status: http.StatusOK, Body: []byte(`{}`)}, // a 200 without metrics
		{Status: http.StatusOK, Body: ok, Done: 20 * time.Millisecond},
	}
	st := classify(samples, 10)
	if st.ok != 2 || st.shed != 1 || st.deadlined != 1 || st.errs != 3 || st.goodput != 1 {
		t.Fatalf("classified ok %d shed %d deadlined %d errs %d goodput %d",
			st.ok, st.shed, st.deadlined, st.errs, st.goodput)
	}
	reps := make([]replayed, len(samples))
	reps[0].metrics = map[string]float64{"total": 1}
	reps[6].metrics = map[string]float64{"total": 2}
	st.checkReplay(0, reps, "replay")
	st.checkReplay(0, reps, "traced replay") // a second mismatch of request 6
	r = newResult()
	st.ops(r)
	if r.attempted != 7 || r.failed != 6 || len(r.problems) != 7 {
		t.Fatalf("attempted %d failed %d problems %d", r.attempted, r.failed, len(r.problems))
	}
	if !math.IsInf(percentile(st.lat, 99), 1) {
		t.Fatal("a failed request must count as missing the latency limit")
	}
}

func TestCrossCheckComparesServerCounters(t *testing.T) {
	st := loadStats{ok: 5, shed: 1}
	before := serve.Snapshot{Received: 10, Completed: 3}
	good := serve.Snapshot{Received: 16, Shed: 1, Completed: 8}
	r := newResult()
	crossCheck(r, before, good, st, 6)
	if len(r.problems) != 0 {
		t.Fatalf("consistent counters flagged: %v", r.problems)
	}
	bad := good
	bad.Deadlines, bad.Completed, bad.Coalesced = 1, 7, 1
	crossCheck(r, before, bad, st, 6)
	if len(r.problems) != 3 {
		t.Fatalf("want 3 mismatches (deadlines, completed, coalesced), got %v", r.problems)
	}
}

func TestPairedOverheadCancelsDrift(t *testing.T) {
	// The host slows by 10% per operation; tracing costs 5%. Alternating
	// which half of a pair goes first leaves ratios of 1.05*1.1 and
	// 1.05/1.1, whose median is the lower one; comparing an untraced
	// first half with a traced second half would report about +65%.
	var ks []int
	var order []bool
	got := pairedOverhead(func(i int) bool { return i < 4 }, func(k int, traced bool) time.Duration {
		ks = append(ks, k)
		order = append(order, traced)
		d := 100 * math.Pow(1.1, float64(k))
		if traced {
			d *= 1.05
		}
		return time.Duration(d * float64(time.Millisecond))
	})
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(ks, want) {
		t.Fatalf("operations %v, want %v", ks, want)
	}
	if want := []bool{false, true, true, false, false, true, true, false}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if want := 1.05/1.1 - 1; math.Abs(got-want) > 1e-6 {
		t.Fatalf("overhead %v, want %v", got, want)
	}
	if n := 0; pairedOverhead(func(int) bool { return false }, func(int, bool) time.Duration {
		n++
		return time.Millisecond
	}) != 0 || n != 2 {
		t.Fatal("with more never true, exactly one pair must run")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v != %v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the reported set")
	}
	in, err := loadInputs()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range bench.Workloads {
		if _, err := newWorkload(&env{in: in, workload: wl.Name}); err != nil {
			t.Error(err)
		}
	}
}

func TestFreshSeedsAreDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100000; i++ {
		s := freshSeed(12345, i)
		if seen[s] {
			t.Fatalf("seed %d repeats at request %d", s, i)
		}
		seen[s] = true
	}
}

func TestFingerprintIgnoresMapOrder(t *testing.T) {
	a, b, c := newFingerprint(), newFingerprint(), newFingerprint()
	a.metrics(map[string]float64{"x": 1, "y": 2})
	b.metrics(map[string]float64{"y": 2, "x": 1})
	c.metrics(map[string]float64{"x": 1, "y": math.Nextafter(2, 3)})
	if a.String() != b.String() || a.String() == c.String() {
		t.Fatalf("fingerprints %s %s %s", a, b, c)
	}
}
