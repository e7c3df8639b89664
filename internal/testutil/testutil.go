// Package testutil holds small helpers shared by tests.
package testutil

import (
	"io"
	"os"
	"runtime"
	"testing"
	"time"
)

// WaitGoroutines fails the test unless runtime.NumGoroutine falls back
// to base or below within a second. A goroutine that has signalled its
// exit can still be counted for a moment while it unwinds, so the count
// is polled rather than read once; for the same reason base may count
// one that ends later, so fewer than base is no leak.
func WaitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Errorf("%s: %d goroutines, want at most %d", what, n, base)
	}
}

// CaptureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything fn wrote alongside fn's error. os.Stdout is restored before
// returning.
func CaptureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := fn()
	w.Close()
	return <-done, runErr
}
