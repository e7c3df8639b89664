package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// This file is the closed-loop load generator: a fixed set of client
// goroutines, each with at most one request in flight over a keep-alive
// connection, so at most that many connections are ever open.

// sample is one request's fate. Times are offsets from the run's start.
type sample struct {
	Sent, Done time.Duration
	Status     int // 0 on a transport error
	Body       []byte
	Err        error
}

// RT is the round trip: send to response.
func (s sample) RT() time.Duration { return s.Done - s.Sent }

// closedLoop runs clients goroutines that each send their next request as
// soon as the previous one is answered, until d has passed, and returns
// the samples in request order. body(i) gives request i; it is called in
// index order, one call at a time.
func closedLoop(ctx context.Context, client *http.Client, url string,
	body func(i int) []byte, clients int, d time.Duration) []sample {
	var samples []sample
	var mu sync.Mutex // guards samples and body
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if time.Since(start) >= d {
					mu.Unlock()
					return
				}
				i := len(samples)
				samples = append(samples, sample{})
				b := body(i)
				mu.Unlock()
				s := sample{Sent: time.Since(start)}
				s.Status, s.Body, s.Err = post(ctx, client, url, b)
				s.Done = time.Since(start)
				mu.Lock()
				samples[i] = s
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples
}

// post sends one JSON body and reads the whole response, so the
// keep-alive connection goes back to the pool.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, b, nil
}

// newClient returns an HTTP client that keeps at most conns keep-alive
// connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}
