package hostpim

// The test system's contract: Simulate's Result is identical — every
// field, bit for bit — for every RunParallel value, and with or without a
// Tracer on one shard. The LWP nodes share nothing, so neither the shard
// assignment nor the window machinery can perturb a single draw or
// timestamp, and a Tracer only observes.

import (
	"reflect"
	"strings"
	"testing"
)

func TestSimulateRunParallelInvariance(t *testing.T) {
	p := DefaultParams()
	p.W = 200000
	p.PctWL = 0.4
	p.N = 7
	for _, overlap := range []bool{false, true} {
		p.Overlap = overlap
		want, err := Simulate(p, SimOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if want.Total <= 0 || want.TimeHWPPhase <= 0 || len(want.NodeTimes) != p.N {
			t.Fatalf("overlap=%v: degenerate result %+v", overlap, want)
		}
		var tr countTracer
		traced, err := Simulate(p, SimOptions{Seed: 3, RunParallel: 1, Tracer: &tr})
		if err != nil {
			t.Fatal(err)
		}
		if tr.n == 0 {
			t.Errorf("overlap=%v: the Tracer saw no events", overlap)
		}
		if !reflect.DeepEqual(traced, want) {
			t.Errorf("overlap=%v: traced run diverged:\n got  %+v\n want %+v", overlap, traced, want)
		}
		// 16 > N exercises the shard clamp (7 shards, one node each).
		for _, rp := range []int{1, 2, 4, 7, 16} {
			got, err := Simulate(p, SimOptions{Seed: 3, RunParallel: rp})
			if err != nil {
				t.Fatalf("overlap=%v RunParallel=%d: %v", overlap, rp, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("overlap=%v RunParallel=%d diverged:\n got  %+v\n want %+v",
					overlap, rp, got, want)
			}
		}
	}
}

func TestSimulateRunParallelRejectsTracer(t *testing.T) {
	p := DefaultParams()
	p.W = 1000
	p.N = 2
	p.PctWL = 0.5
	_, err := Simulate(p, SimOptions{Seed: 1, RunParallel: 2, Tracer: nopTracer{}})
	if err == nil || !strings.Contains(err.Error(), "Tracer") {
		t.Fatalf("err = %v, want Tracer rejection", err)
	}
	// Single-shard runs still trace.
	for _, rp := range []int{0, 1} {
		if _, err := Simulate(p, SimOptions{Seed: 1, RunParallel: rp, Tracer: nopTracer{}}); err != nil {
			t.Fatal(err)
		}
	}
}

type nopTracer struct{}

func (nopTracer) ProcState(t float64, name, state string) {}

// countTracer counts the state transitions it observes.
type countTracer struct{ n int }

func (c *countTracer) ProcState(t float64, name, state string) { c.n++ }
