package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// serveWorkload drives an in-process serve.Server over loopback HTTP from
// serveClients closed-loop clients, sending every pinned (preset, backend)
// pair with a fresh seed per request, so the result cache never hits.
type serveWorkload struct {
	env *env

	srv    *serve.Server
	hs     *http.Server
	served chan error // Serve's return value
	url    string
	client *http.Client

	specs    []scenario.Spec // the pairs
	seedBase uint64          // request seeds derive from it
	next     int             // index of the next request in the sequence
	block    []int           // the current permutation block of specs
	bodies   [][]byte        // the measured requests, in order
	pairOf   []int           // the index in specs of each measured request
}

func (w *serveWorkload) setup() error {
	in := w.env.in.ServeCold
	for _, p := range in.Pairs {
		w.specs = append(w.specs, scenario.Spec{Preset: p[0], Backend: p[1], Quick: true})
	}
	w.seedBase = rng.NewWithStream(w.env.seed, 0xc01d).Uint64()

	w.srv = serve.New(serve.Options{Workers: w.env.nproc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String() + "/run"
	w.client = newClient(serveClients)

	// Warm-up: one request per pair at a fixed seed fills the
	// seed-independent analytic and MVA memos (kernel measurements are
	// keyed by seed, so the fresh request seeds still miss them).
	for _, sp := range w.specs {
		sp.Seed = in.WarmSeed
		body, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		status, _, err := post(context.Background(), w.client, w.url, body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up %s on %s: status %d, %v", sp.Preset, sp.Backend, status, err)
		}
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	if err := w.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
	if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	w.client.CloseIdleConnections()
}

// nextBody returns the next request of the sequence: the specs in seeded
// permutation blocks (each block sends every spec once, so every run sends
// the same mix), each request with a fresh seed.
func (w *serveWorkload) nextBody() (pair int, body []byte) {
	pos := w.next % len(w.specs)
	if pos == 0 {
		st := rng.NewWithStream(w.env.seed, 0xb10c+uint64(w.next/len(w.specs)))
		w.block = st.Perm(len(w.specs))
	}
	pair = w.block[pos]
	sp := w.specs[pair]
	sp.Seed = freshSeed(w.seedBase, w.next)
	w.next++
	// A Spec without field overrides holds only strings, integers and
	// booleans, which always encode.
	body, _ = json.Marshal(sp)
	return pair, body
}

// freshSeed maps request index i to a seed; SplitMix64's finalizer is a
// bijection, so distinct indices never share a seed.
func freshSeed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// loadStats summarizes one load run against the latency limit.
type loadStats struct {
	ok, shed, deadlined, errs int
	lat, rt, flight, over     []float64 // ms; lat holds +Inf for non-200
	goodput                   int       // 200s within the limit
	resps                     []*serve.RunResponse
	problems                  [][]string // per request: its failed checks
}

// classify decodes every response and records, per request, why it
// failed, if it did.
func classify(samples []sample, limitMS float64) loadStats {
	st := loadStats{
		resps:    make([]*serve.RunResponse, len(samples)),
		problems: make([][]string, len(samples)),
	}
	for i, s := range samples {
		var problem string
		switch {
		case s.Err != nil:
			st.errs++
			problem = fmt.Sprintf("request %d: transport error: %v", i, s.Err)
		case s.Status == http.StatusTooManyRequests:
			st.shed++
			problem = fmt.Sprintf("request %d: shed (429)", i)
		case s.Status == http.StatusGatewayTimeout:
			st.deadlined++
			problem = fmt.Sprintf("request %d: deadline (504)", i)
		case s.Status != http.StatusOK:
			st.errs++
			problem = fmt.Sprintf("request %d: status %d: %s", i, s.Status, s.Body)
		}
		var resp serve.RunResponse
		if problem == "" {
			if err := json.Unmarshal(s.Body, &resp); err != nil || len(resp.Metrics) == 0 {
				st.errs++
				problem = fmt.Sprintf("request %d: bad 200 body (%v): %s", i, err, s.Body)
			}
		}
		if problem != "" {
			st.lat = append(st.lat, math.Inf(1))
			st.problems[i] = append(st.problems[i], problem)
			continue
		}
		st.ok++
		st.resps[i] = &resp
		rt := ms(s.RT())
		st.lat = append(st.lat, rt)
		st.rt = append(st.rt, rt)
		st.flight = append(st.flight, resp.ElapsedMS)
		st.over = append(st.over, rt-resp.ElapsedMS)
		if rt <= limitMS {
			st.goodput++
		}
	}
	return st
}

// checkReplay compares the served metrics of requests lo.. with their
// in-process replay, recording a mismatch as a failure of that request.
func (st *loadStats) checkReplay(lo int, reps []replayed, what string) {
	for k, rep := range reps {
		i := lo + k
		if resp := st.resps[i]; resp != nil && (rep.err != nil || !sameMetrics(resp.Metrics, rep.metrics)) {
			st.problems[i] = append(st.problems[i],
				fmt.Sprintf("request %d: %s: served metrics differ from the %s (%v)", i, resp.Key, what, rep.err))
		}
	}
}

// ops counts every request as one operation of r, failed if any of its
// checks failed.
func (st *loadStats) ops(r *result) {
	for _, p := range st.problems {
		r.op(p...)
	}
}

// settled returns the server's counters once every flight started since
// before has finished: a flight's waiter is answered just before the
// server counts the flight as completed or failed.
func (w *serveWorkload) settled(before serve.Snapshot) serve.Snapshot {
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := w.srv.Metrics()
		started := s.Accepted + s.Shed - before.Accepted - before.Shed
		if s.Completed+s.Failed-before.Completed-before.Failed >= started || time.Now().After(deadline) {
			return s
		}
		time.Sleep(time.Millisecond)
	}
}

// crossCheck compares what the clients saw with the server's counters.
// serve-cold's keys are distinct, so no request coalesces and every 200 is
// its own completed flight. The counts are exact for a run without 504s;
// a waiter's 504 whose flight times out later counts twice on the server,
// but such a run has failed already.
func crossCheck(r *result, before, after serve.Snapshot, st loadStats, sent int) {
	for _, c := range []struct {
		what           string
		server, client int64
	}{
		{"received", after.Received - before.Received, int64(sent)},
		{"shed (429)", after.Shed - before.Shed, int64(st.shed)},
		{"deadlines (504)", after.Deadlines - before.Deadlines, int64(st.deadlined)},
		{"completed (200)", after.Completed - before.Completed, int64(st.ok)},
		{"coalesced", after.Coalesced - before.Coalesced, 0},
	} {
		if c.server != c.client {
			r.problem("accounting: server counted %d %s, clients saw %d", c.server, c.what, c.client)
		}
	}
}

func (w *serveWorkload) run(r *result) error {
	in := w.env.in.ServeCold
	// The load runs for all of --seconds in both modes; like the
	// untraced run's check, the traced replay that follows takes about
	// half as long again.
	phase := w.env.seconds
	r.note("inputs serve-cold: closed loop of %d client(s) against %d workers for %.1f s, p99 limit %.0f ms, %d specs",
		serveClients, w.env.nproc, phase.Seconds(), in.P99LimitMS, len(w.specs))
	before := w.srv.Metrics()
	a0 := allocBytes()
	samples := closedLoop(context.Background(), w.client, w.url, func(int) []byte {
		pair, b := w.nextBody()
		w.bodies = append(w.bodies, b)
		w.pairOf = append(w.pairOf, pair)
		return b
	}, serveClients, phase)
	allocKB := float64(allocBytes()-a0) / 1024 / float64(len(samples))
	after := w.settled(before)
	st := classify(samples, in.P99LimitMS)
	crossCheck(r, before, after, st, len(samples))
	if st.ok < 1000 && w.env.seconds >= 24*time.Second {
		r.problem("only %d OK samples in the measured phase (want >= 1000)", st.ok)
	}
	p99 := blockP99(st.lat)
	r.note("load: %d sent, %d ok, p50 of all %.3f ms, p99 %.3f ms, goodput %.1f req/s",
		len(samples), st.ok, median(st.lat), p99, float64(st.goodput)/phase.Seconds())
	pm := pairMedians(st.lat, w.pairOf, len(w.specs))
	r.note("pair medians ms %v, geometric mean %.4f", fmtList(pm), geomean(pm))
	fp := newFingerprint()
	for _, resp := range st.resps {
		if resp != nil {
			fp.metrics(resp.Metrics)
		}
	}
	r.note("fingerprint serve-cold %s (%d responses)", fp, st.ok)

	if !w.env.trace {
		// Replay every request in-process and compare.
		reps, wall := w.replay(0, len(w.bodies), nil)
		st.checkReplay(0, reps, "replay")
		st.ops(r)
		r.note("replay: %d requests in %.3f s on %d goroutines (%.1f req/s)",
			len(reps), wall.Seconds(), w.env.nproc, float64(len(reps))/wall.Seconds())
		// The pairs' latencies lie in clusters a decade apart, so the
		// median of the whole mix sits on a cluster's edge, where a small
		// shift moves it far, and it ignores every pair off that edge.
		// Each pair's own median, combined geometrically, weighs every
		// pair alike.
		r.e2e["p50_ms"] = geomean(pm)
		r.e2e["p99_ms"] = p99
		r.e2e["alloc_kb_per_op"] = allocKB
		// The rate the closed loop sustained: one request at a time, so
		// 1000 / the mean latency in ms.
		r.e2e["max_rate_rps"] = float64(st.ok) / phase.Seconds()
		return nil
	}

	r.layer["serve.rt.p50_ms"] = median(st.rt)
	r.layer["serve.rt.p99_ms"] = percentile(st.rt, 99)
	r.layer["serve.flight.p50_ms"] = median(st.flight)
	r.layer["serve.flight.p99_ms"] = percentile(st.flight, 99)
	r.layer["serve.overhead.p50_ms"] = median(st.over)
	r.layer["serve.goodput_rps"] = float64(st.goodput) / phase.Seconds()
	r.layer["serve.shed"] = float64(after.Shed - before.Shed)
	r.layer["serve.deadlines"] = float64(after.Deadlines - before.Deadlines)
	r.layer["serve.coalesced"] = float64(after.Coalesced - before.Coalesced)
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	if hits+misses > 0 {
		r.layer["engine.cache.hit_frac"] = float64(hits) / float64(hits+misses)
	}
	r.layer["engine.cache.evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)

	// The traced run: the measured request sequence replayed in-process,
	// decode -> engine.run -> scenario.run, through a sharded cache as the
	// server uses. Every request is replayed once, so the seed-keyed
	// kernel-measurement memo stays as cold as it was for the server: the
	// sequence is cut into chunks of whole permutation blocks, which send
	// the same mix, and each pair of chunks runs one untraced and one
	// traced. Requests left after the last whole pair are replayed
	// untraced, for the check only.
	if len(w.bodies) < 2 {
		return fmt.Errorf("serve-cold: %d requests sent, too few to replay in pairs", len(w.bodies))
	}
	chunk := min(replayBlocks*len(w.specs), len(w.bodies)/2) // less only in a short run
	pairs := len(w.bodies) / (2 * chunk)
	replay := func(lo, hi int, tr *tracer) time.Duration {
		what := "replay"
		if tr != nil {
			what = "traced replay"
		}
		reps, wall := w.replay(lo, hi, tr)
		st.checkReplay(lo, reps, what)
		return wall
	}
	r.layer["trace.overhead_frac"] = pairedOverhead(
		func(i int) bool { return i < pairs },
		func(k int, traced bool) time.Duration {
			tr := (*tracer)(nil)
			if traced {
				tr = r.tracer
			}
			return replay(k*chunk, (k+1)*chunk, tr)
		})
	replay(2*pairs*chunk, len(w.bodies), nil)
	st.ops(r)
	r.note("traced replay: %d pairs of %d-request chunks", pairs, chunk)
	spans := r.tracer.snapshot()
	self := spanMS(spans, true, false)
	r.layer["engine.run.p50_ms"] = median(self["engine.run"])
	dur := spanMS(spans, false, false)
	r.layer["serve.decode.p50_us"] = median(dur["serve.decode"]) * 1000
	byBackend := spanMS(spans, false, true)
	for _, b := range scenarioBackends {
		xs := byBackend["scenario.run/"+b]
		r.layer["scenario."+b+".p50_ms"] = median(xs)
		r.layer["scenario."+b+".p99_ms"] = percentile(xs, 99)
	}
	return nil
}

// serveClients is the number of closed-loop clients. One client leaves the
// host's other CPUs to the HTTP stack, the GC and other tenants. With nproc
// clients every CPU is busy, and one competing CPU-bound process raised the
// pairs' median latency by half; with one client it raised it by 5%.
const serveClients = 1

// replayBlocks is how many permutation blocks one replay chunk holds.
const replayBlocks = 5

// replayed is one request's in-process replay.
type replayed struct {
	key     string
	metrics map[string]float64
	err     error
}

// replay runs requests lo..hi-1 of the measured phase in-process on nproc
// goroutines through a fresh result cache and returns each request's
// result and the wall time.
func (w *serveWorkload) replay(lo, hi int, tr *tracer) ([]replayed, time.Duration) {
	cache := engine.NewShardedCache(0, 0)
	out := make([]replayed, hi-lo)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < w.env.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				out[k] = replayOne(w.bodies[lo+k], cache, tr, int64(lo+k))
			}
		}()
	}
	for k := range out {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return out, time.Since(start)
}

// replayOne does in-process what the server does with one request body:
// decode and resolve it, then run it through a single-use engine around
// the shared cache, with a core.Experiment wrapper calling scenario.Run.
func replayOne(body []byte, cache *engine.ShardedCache, tr *tracer, req int64) replayed {
	root := tr.begin("replay.request", "", -1, req)
	defer tr.end(root)
	dec := tr.begin("serve.decode", "", root, req)
	sp, err := scenario.DecodeSpec(body)
	var res scenario.Resolved
	if err == nil {
		res, err = resolve(sp)
	}
	var key string
	if err == nil {
		key = res.Key()
	}
	tr.end(dec)
	if err != nil {
		return replayed{err: err}
	}
	run := tr.begin("engine.run", "", root, req)
	eng := engine.New(engine.Options{Workers: 1, Replications: res.Replications, Cache: cache})
	exp := &core.Experiment{
		ID: key,
		Run: func(cfg core.Config, _ io.Writer) (*core.Outcome, error) {
			sc := tr.begin("scenario.run", res.Backend, run, req)
			defer tr.end(sc)
			sres, err := scenario.Run(res.Scenario, res.Backend, scenario.Config{Seed: cfg.Seed, Quick: cfg.Quick})
			if err != nil {
				return nil, err
			}
			return &core.Outcome{Metrics: sres.Metrics}, nil
		},
	}
	results, err := eng.Run(core.Config{Seed: res.Seed, Quick: res.Quick}, []*core.Experiment{exp})
	tr.end(run)
	if err != nil {
		return replayed{key: key, err: err}
	}
	if len(results) != 1 || results[0].Outcome == nil {
		return replayed{key: key, err: fmt.Errorf("engine returned no outcome")}
	}
	return replayed{key: key, metrics: results[0].Outcome.Metrics}
}
