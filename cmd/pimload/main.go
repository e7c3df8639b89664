// Command pimload is a deterministic open-arrival load generator for
// pimserve: it schedules requests from a seeded Poisson or bursty MMPP
// arrival process (internal/queueing), fires them at the daemon without
// waiting for earlier responses (open arrivals — exactly the pattern that
// exposes queueing collapse), and reports the latency distribution and
// the server's degradation behavior: shed rate, coalescing, cache hits.
//
// Usage:
//
//	pimload -addr HOST:PORT [flags]
//
// Flags:
//
//	-addr ADDR        daemon address (host:port or http://... URL)
//	-requests N       how many requests to send (default 1000)
//	-rate R           mean arrival rate, requests/second (default 200)
//	-shape NAME       arrival process: poisson or mmpp (default poisson)
//	-burst R          MMPP burst-state rate (default 10x -rate)
//	-dwell D          MMPP mean dwell in the base state (default 1s)
//	-burstdwell D     MMPP mean dwell in the burst state (default 100ms)
//	-seed N           arrival-schedule seed (default 1)
//	-preset NAME      scenario preset to request (default paper-baseline)
//	-backend NAME     backend to request ("" = server picks)
//	-field k=v        field override, repeatable
//	-quick            request quick mode (default true)
//	-seedpool N       cycle request seeds through N values (default 16;
//	                  duplicates drive coalescing and cache hits)
//	-replications N   replications per request (default 1)
//	-timeout D        per-request deadline sent as timeout_ms (default 10s)
//	-json             emit the report as JSON
//
// Each request's latency runs from its scheduled send time, not from
// when the generator got round to sending it, so a generator that falls
// behind its schedule cannot hide its own lateness: it shows up in the
// latencies, and the report's max_late_ms says how far behind the
// generator fell.
//
// Exit status is 0 as long as the load completed and every response was
// either a success or a deliberate overload response (429/503/504); any
// transport failure or 4xx/5xx outside that contract fails the run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/queueing"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pimload:", err)
		os.Exit(1)
	}
}

// fieldFlags collects repeatable -field k=v overrides.
type fieldFlags map[string]float64

func (f fieldFlags) String() string { return fmt.Sprint(map[string]float64(f)) }
func (f fieldFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", s)
	}
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return err
	}
	f[k] = x
	return nil
}

// Report is the end-of-run summary (also the -json payload).
type Report struct {
	Requests  int     `json:"requests"`
	OK        int     `json:"ok"`
	Shed      int     `json:"shed"`      // 429 + 503
	Deadlined int     `json:"deadlined"` // 504
	Errors    int     `json:"errors"`    // anything else
	Coalesced int     `json:"coalesced"`
	CacheHits int     `json:"cache_hits"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	MaxMS     float64 `json:"max_ms"`
	ShedRate  float64 `json:"shed_rate"`
	HitRate   float64 `json:"cache_hit_rate"` // of OK responses
	ElapsedS  float64 `json:"elapsed_s"`
	RateSent  float64 `json:"rate_sent"` // achieved send rate
	// MaxLateMS is the generator's worst lateness: how long after its
	// scheduled send time a request actually went out.
	MaxLateMS float64 `json:"max_late_ms"`
}

// sleepUntil blocks until t; the send loop paces arrivals with it.
var sleepUntil = func(t time.Time) { time.Sleep(time.Until(t)) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pimload", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "daemon address (host:port or URL)")
	requests := fs.Int("requests", 1000, "requests to send")
	rate := fs.Float64("rate", 200, "mean arrival rate (req/s)")
	shape := fs.String("shape", "poisson", "arrival process: poisson or mmpp")
	burst := fs.Float64("burst", 0, "MMPP burst rate (0 = 10x -rate)")
	dwell := fs.Duration("dwell", time.Second, "MMPP base-state mean dwell")
	burstDwell := fs.Duration("burstdwell", 100*time.Millisecond, "MMPP burst-state mean dwell")
	seed := fs.Uint64("seed", 1, "arrival-schedule seed")
	preset := fs.String("preset", "paper-baseline", "scenario preset")
	backend := fs.String("backend", "", "backend (empty = server picks)")
	quick := fs.Bool("quick", true, "request quick mode")
	seedPool := fs.Int("seedpool", 16, "cycle request seeds through N values")
	replications := fs.Int("replications", 1, "replications per request")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	fields := fieldFlags{}
	fs.Var(fields, "field", "field override name=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *requests <= 0 {
		return fmt.Errorf("-requests %d: want > 0", *requests)
	}
	if *seedPool <= 0 {
		return fmt.Errorf("-seedpool %d: want > 0", *seedPool)
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	var arrivals queueing.ArrivalProcess
	var err error
	switch *shape {
	case "poisson":
		arrivals, err = queueing.NewPoissonArrivals(*rate, rng.NewWithStream(*seed, 1))
	case "mmpp":
		b := *burst
		if b == 0 {
			b = 10 * *rate
		}
		arrivals, err = queueing.NewMMPPArrivals(*rate, b,
			dwell.Seconds(), burstDwell.Seconds(), rng.NewWithStream(*seed, 1))
	default:
		return fmt.Errorf("-shape %q: want poisson or mmpp", *shape)
	}
	if err != nil {
		return err
	}

	// Pre-build the request bodies so the send loop does no marshaling.
	// Request i reuses seed i mod seedpool: a pool much smaller than the
	// request count guarantees duplicates, which is what exercises the
	// server's coalescing and cache paths.
	bodies := make([][]byte, *requests)
	for i := range bodies {
		sp := scenario.Spec{
			Preset:       *preset,
			Backend:      *backend,
			Seed:         *seed + uint64(i%*seedPool),
			Quick:        *quick,
			Replications: *replications,
			TimeoutMS:    int(timeout.Milliseconds()),
		}
		if len(fields) > 0 {
			sp.Fields = fields
		}
		b, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		bodies[i] = b
	}

	client := &http.Client{Timeout: *timeout + 5*time.Second}
	type outcome struct {
		status    int
		late      time.Duration // send time minus scheduled time
		latency   time.Duration // response time minus scheduled time
		coalesced bool
		fromCache bool
		failed    error
	}
	outcomes := make([]outcome, *requests)
	var wg sync.WaitGroup

	start := time.Now()
	next := start
	for i := 0; i < *requests; i++ {
		next = next.Add(time.Duration(arrivals.Next() * float64(time.Second)))
		sleepUntil(next)
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			late := time.Since(sched)
			resp, err := client.Post(base+"/run", "application/json",
				bytes.NewReader(bodies[i]))
			if err != nil {
				outcomes[i] = outcome{late: late, failed: err}
				return
			}
			var rr serve.RunResponse
			dec := json.NewDecoder(resp.Body)
			decErr := dec.Decode(&rr)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if decErr != nil {
				outcomes[i] = outcome{late: late, failed: fmt.Errorf("bad response body: %w", decErr)}
				return
			}
			outcomes[i] = outcome{
				status:    resp.StatusCode,
				late:      late,
				latency:   time.Since(sched),
				coalesced: rr.Coalesced,
				fromCache: rr.FromCache,
			}
		}(i, next)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{Requests: *requests, ElapsedS: elapsed.Seconds()}
	if elapsed > 0 {
		rep.RateSent = float64(*requests) / elapsed.Seconds()
	}
	var latencies []float64
	var firstErr error
	for _, o := range outcomes {
		if ms := float64(o.late) / float64(time.Millisecond); ms > rep.MaxLateMS {
			rep.MaxLateMS = ms
		}
		if o.failed != nil {
			rep.Errors++
			if firstErr == nil {
				firstErr = o.failed
			}
			continue
		}
		switch o.status {
		case http.StatusOK:
			rep.OK++
			latencies = append(latencies, float64(o.latency)/float64(time.Millisecond))
			if o.fromCache {
				rep.CacheHits++
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rep.Shed++
		case http.StatusGatewayTimeout:
			rep.Deadlined++
		default:
			rep.Errors++
			if firstErr == nil {
				firstErr = fmt.Errorf("unexpected status %d", o.status)
			}
		}
		if o.coalesced {
			rep.Coalesced++
		}
	}
	rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
	if rep.OK > 0 {
		rep.HitRate = float64(rep.CacheHits) / float64(rep.OK)
	}
	sort.Float64s(latencies)
	rep.P50MS = percentile(latencies, 0.50)
	rep.P99MS = percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.MaxMS = latencies[n-1]
	}

	if *jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		fmt.Fprintf(stdout, "pimload: %d requests in %.2fs (%.1f req/s sent, %s arrivals)\n",
			rep.Requests, rep.ElapsedS, rep.RateSent, *shape)
		fmt.Fprintf(stdout, "  ok %d  shed %d (%.1f%%)  deadlined %d  errors %d\n",
			rep.OK, rep.Shed, 100*rep.ShedRate, rep.Deadlined, rep.Errors)
		fmt.Fprintf(stdout, "  coalesced %d  cache hits %d (%.1f%% of ok)\n",
			rep.Coalesced, rep.CacheHits, 100*rep.HitRate)
		fmt.Fprintf(stdout, "  latency ms: p50 %.2f  p99 %.2f  max %.2f\n",
			rep.P50MS, rep.P99MS, rep.MaxMS)
		fmt.Fprintf(stdout, "  generator max lateness %.2f ms\n", rep.MaxLateMS)
	}
	if firstErr != nil {
		return fmt.Errorf("%d request(s) failed, first: %w", rep.Errors, firstErr)
	}
	return nil
}

// percentile reads the p-quantile from an ascending slice by nearest
// rank: the smallest value with at least p·n observations at or below it,
// index ceil(p·n)-1 clamped to the slice. The old floor-of-linear-index
// form under-read tail quantiles on small samples (p99 of 10 requests
// returned the 9th-of-10 latency, never the max).
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}
