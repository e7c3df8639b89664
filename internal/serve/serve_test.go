package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scenario"
)

// postSpec drives one /run request through the handler and decodes the
// response.
func postSpec(t *testing.T, h http.Handler, body string) (int, RunResponse, http.Header) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var resp RunResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response body %q: %v", w.Body.String(), err)
	}
	return w.Code, resp, w.Header()
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// okResult is a canned successful engine result for stubbed run paths.
func okResult() (engine.Result, error) {
	return engine.Result{
		Outcome: &core.Outcome{Metrics: map[string]float64{"total": 42}},
	}, nil
}

func TestRunEndToEnd(t *testing.T) {
	s := New(Options{})
	defer drain(t, s)
	h := s.Handler()

	const spec = `{"preset":"machine-gups","fields":{"nodes":4,"updates":8},"quick":true}`
	code, resp, _ := postSpec(t, h, spec)
	if code != http.StatusOK {
		t.Fatalf("status %d, error %q", code, resp.Error)
	}
	if resp.Metrics[scenario.MetricTotal] <= 0 {
		t.Errorf("no total metric: %+v", resp.Metrics)
	}
	if resp.Backend != "machine" || resp.FromCache || resp.Coalesced {
		t.Errorf("unexpected response shape: %+v", resp)
	}

	// The identical spec again must hit the shared result cache.
	code, resp2, _ := postSpec(t, h, spec)
	if code != http.StatusOK || !resp2.FromCache {
		t.Fatalf("second request: status %d FromCache %t", code, resp2.FromCache)
	}
	if resp2.Metrics[scenario.MetricTotal] != resp.Metrics[scenario.MetricTotal] {
		t.Error("cached metrics differ from the original run")
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st)
	}

	m := s.Metrics()
	if m.Received != 2 || m.Accepted != 2 || m.Completed != 2 || m.Shed != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestReplicatedRunAggregates(t *testing.T) {
	s := New(Options{})
	defer drain(t, s)
	code, resp, _ := postSpec(t, s.Handler(),
		`{"preset":"machine-gups","fields":{"nodes":4,"updates":8},"quick":true,"replications":3,"seed":5}`)
	if code != http.StatusOK {
		t.Fatalf("status %d, error %q", code, resp.Error)
	}
	ag, ok := resp.Aggregates[scenario.MetricTotal]
	if !ok || ag.N != 3 {
		t.Fatalf("aggregate = %+v (ok %t), want N = 3", ag, ok)
	}
}

func TestBadRequestsRejected(t *testing.T) {
	s := New(Options{})
	defer drain(t, s)
	h := s.Handler()

	cases := []struct {
		body string
		want int
	}{
		{`{"preset":"nope"}`, http.StatusBadRequest},
		{`{"preset":"paper-baseline","bogus":1}`, http.StatusBadRequest},
		{`{"preset":"paper-baseline"} extra`, http.StatusBadRequest},
		{`{"preset":"paper-baseline","fields":{"nodes":1e30}}`, http.StatusBadRequest},
		{``, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, resp, _ := postSpec(t, h, c.body); code != c.want || resp.Error == "" {
			t.Errorf("body %q: status %d error %q, want %d with an error", c.body, code, resp.Error, c.want)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/run", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /run status %d", w.Code)
	}
	if m := s.Metrics(); m.Rejected != int64(len(cases))+1 {
		t.Errorf("rejected = %d, want %d", m.Rejected, len(cases)+1)
	}
}

func TestSingleFlightCoalesces(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 16})
	defer drain(t, s)

	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	s.run = func(ctx context.Context, r scenario.Resolved) (engine.Result, error) {
		if runs.Add(1) == 1 {
			close(started)
		}
		<-release
		return okResult()
	}

	h := s.Handler()
	const spec = `{"preset":"paper-baseline","seed":1}`
	const n = 8
	codes := make([]int, n)
	resps := make([]RunResponse, n)
	var wg sync.WaitGroup

	// Lead request first, so its flight exists before the joiners arrive.
	wg.Add(1)
	go func() {
		defer wg.Done()
		codes[0], resps[0], _ = postSpec(t, h, spec)
	}()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], resps[i], _ = postSpec(t, h, spec)
		}(i)
	}
	// Joiners must register on the in-flight map before the release; poll
	// the coalesced counter rather than sleeping.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Coalesced < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d", s.Metrics().Coalesced, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("run executed %d times for %d identical requests", got, n)
	}
	var joined int
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d error %q", i, codes[i], resps[i].Error)
		}
		if resps[i].Coalesced {
			joined++
		}
	}
	if joined != n-1 {
		t.Errorf("%d coalesced responses, want %d", joined, n-1)
	}
	if m := s.Metrics(); m.Coalesced != n-1 || m.Accepted != 1 || m.Completed != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestOverloadShedsWithRetryAfter(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	defer drain(t, s)

	started := make(chan struct{})
	release := make(chan struct{})
	s.run = func(ctx context.Context, r scenario.Resolved) (engine.Result, error) {
		started <- struct{}{}
		<-release
		return okResult()
	}
	h := s.Handler()
	spec := func(seed int) string {
		return fmt.Sprintf(`{"preset":"paper-baseline","seed":%d}`, seed)
	}

	var wg sync.WaitGroup
	post := func(seed int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, resp, _ := postSpec(t, h, spec(seed)); code != http.StatusOK {
				t.Errorf("seed %d: status %d error %q", seed, code, resp.Error)
			}
		}()
	}
	post(1)
	<-started // the worker now holds flight 1; the queue is empty
	post(2)   // occupies the single queue slot
	for len(s.queue) == 0 {
		time.Sleep(time.Millisecond)
	}

	// Queue full: a distinct third spec must be shed, with a retry hint.
	code, resp, hdr := postSpec(t, h, spec(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d error %q, want 429", code, resp.Error)
	}
	if hdr.Get("Retry-After") != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", hdr.Get("Retry-After"))
	}

	close(release)
	<-started // flight 2 starts once the worker frees up
	wg.Wait()

	if m := s.Metrics(); m.Shed != 1 || m.Accepted != 2 || m.Completed != 2 || m.Failed != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestQueuedPastDeadlineGets504(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer drain(t, s)

	var runs atomic.Int64
	var startOnce sync.Once
	started := make(chan struct{})
	release := make(chan struct{})
	s.run = func(ctx context.Context, r scenario.Resolved) (engine.Result, error) {
		runs.Add(1)
		// Idempotent, so a flight that runs by mistake is counted by the
		// check below instead of panicking the worker.
		startOnce.Do(func() { close(started) })
		<-release
		return okResult()
	}
	h := s.Handler()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSpec(t, h, `{"preset":"paper-baseline","seed":1}`)
	}()
	<-started

	// Queued behind the blocked worker with a 50ms budget: the waiter
	// times out (504), and when the worker finally reaches the flight it
	// discards it without running.
	code, resp, _ := postSpec(t, h, `{"preset":"paper-baseline","seed":2,"timeout_ms":50}`)
	if code != http.StatusGatewayTimeout || resp.Error == "" {
		t.Fatalf("status %d error %q, want 504", code, resp.Error)
	}

	close(release)
	wg.Wait()
	drain(t, s) // the worker retires the expired flight before draining
	if got := runs.Load(); got != 1 {
		t.Errorf("run executed %d times; the expired flight must not run", got)
	}
	if m := s.Metrics(); m.Deadlines < 2 { // the waiter and the worker discard
		t.Errorf("deadlines = %d, want >= 2", m.Deadlines)
	}
}

func TestPanicRecovered(t *testing.T) {
	s := New(Options{Workers: 1})
	defer drain(t, s)

	s.run = func(ctx context.Context, r scenario.Resolved) (engine.Result, error) {
		panic("backend exploded")
	}
	h := s.Handler()
	code, resp, _ := postSpec(t, h, `{"preset":"paper-baseline","seed":1}`)
	if code != http.StatusInternalServerError || !strings.Contains(resp.Error, "backend exploded") {
		t.Fatalf("status %d error %q", code, resp.Error)
	}

	// The worker survived: a healthy run still completes.
	s.run = func(ctx context.Context, r scenario.Resolved) (engine.Result, error) {
		return okResult()
	}
	if code, resp, _ := postSpec(t, h, `{"preset":"paper-baseline","seed":2}`); code != http.StatusOK {
		t.Fatalf("after panic: status %d error %q", code, resp.Error)
	}
	if m := s.Metrics(); m.Panics != 1 {
		t.Errorf("panics = %d, want 1", m.Panics)
	}
}

func TestRunDeadlinePropagates(t *testing.T) {
	s := New(Options{Workers: 1, DefaultTimeout: 50 * time.Millisecond})
	defer drain(t, s)

	s.run = func(ctx context.Context, r scenario.Resolved) (engine.Result, error) {
		<-ctx.Done() // a cooperative backend: stops when the deadline fires
		return engine.Result{}, ctx.Err()
	}
	code, resp, _ := postSpec(t, s.Handler(), `{"preset":"paper-baseline","seed":1}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d error %q, want 504", code, resp.Error)
	}
	// The waiter's 504 races the worker retiring the flight; allow the
	// worker a moment to record the failure.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Failed != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("metrics = %+v, want Failed = 1", s.Metrics())
		}
		time.Sleep(time.Millisecond)
	}
	if m := s.Metrics(); m.Deadlines == 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestDrainRefusesNewWorkAndFinishesOld(t *testing.T) {
	s := New(Options{Workers: 1})

	started := make(chan struct{})
	release := make(chan struct{})
	s.run = func(ctx context.Context, r scenario.Resolved) (engine.Result, error) {
		close(started)
		<-release
		return okResult()
	}
	h := s.Handler()

	var inFlightCode int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, _, _ := postSpec(t, h, `{"preset":"paper-baseline","seed":1}`)
		atomic.StoreInt32(&inFlightCode, int32(code))
	}()
	<-started

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()
	for !s.Metrics().Draining {
		time.Sleep(time.Millisecond)
	}

	// While draining: not ready, and new work is refused with 503.
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: %d", w.Code)
	}
	code, _, hdr := postSpec(t, h, `{"preset":"paper-baseline","seed":2}`)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("new work while draining: status %d Retry-After %q", code, hdr.Get("Retry-After"))
	}

	// The admitted flight still completes, then the drain finishes.
	close(release)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if atomic.LoadInt32(&inFlightCode) != http.StatusOK {
		t.Errorf("in-flight request finished with %d", inFlightCode)
	}

	// Drain again: immediate no-op.
	drain(t, s)
}

func TestDrainTimesOutOnStuckWork(t *testing.T) {
	s := New(Options{Workers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	s.run = func(ctx context.Context, r scenario.Resolved) (engine.Result, error) {
		close(started)
		<-release
		return okResult()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSpec(t, s.Handler(), `{"preset":"paper-baseline","seed":1}`)
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain of a stuck flight returned nil")
	}
	close(release)
	wg.Wait()
	drain(t, s)
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	s := New(Options{})
	defer drain(t, s)
	h := s.Handler()

	for _, path := range []string{"/healthz", "/readyz"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Errorf("%s: %d", path, w.Code)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics body %q: %v", w.Body.String(), err)
	}
	if m.QueueCap != 64 {
		t.Errorf("queue cap = %d, want the 64 default", m.QueueCap)
	}
}
