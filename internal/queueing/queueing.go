// Package queueing provides composable queueing-network components on top of
// the sim kernel — sources, servers, delays, routers, sinks, closed loops
// and processor sharing — plus the classical closed-form results (M/M/1,
// M/M/c, M/D/1, M/G/1, processor sharing, MVA) used to validate the kernel
// against theory.
//
// This is the layer at which the paper's SES/Workbench models are expressed:
// a Workbench model is a directed graph of service and delay nodes through
// which transactions flow, which maps one-to-one onto these components.
// Jobs are plain values: a station visit is an inline AcceptAct call plus
// at most one scheduled completion event, so a whole run executes inside
// the kernel's dispatch loop.
package queueing

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Job is the unit of flow through a queueing network (a Workbench
// "transaction").
type Job struct {
	ID      int64
	Class   int // workload class, available for routing decisions
	Created sim.Time
	// Start is per-station scratch: the arrival time at the station
	// currently holding the job.
	Start sim.Time
	// Attrs carries model-specific baggage.
	Attrs map[string]float64
}

// Sink absorbs jobs and records their end-to-end sojourn times.
type Sink struct {
	Name string
	// Sojourn samples job lifetime (now - Created).
	Sojourn stats.Sample
	// Recycle, when non-nil, receives each absorbed job so its allocation
	// can be reused (an ActSource's Dispose closes the loop).
	Recycle func(*Job)
	count   int64
}

// NewSink creates a sink.
func NewSink(name string) *Sink { return &Sink{Name: name} }

// Count returns the number of jobs absorbed.
func (s *Sink) Count() int64 { return s.count }

// ProbRouter returns a choice function routing to output i with probability
// probs[i] (probabilities must sum to ~1).
func ProbRouter(st *rng.Stream, probs []float64) func(*Job) int {
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		panic(fmt.Sprintf("queueing: ProbRouter probabilities sum to %g", sum))
	}
	return func(*Job) int { return st.Discrete(probs) }
}
