package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// This file is the network-facing wire format: a Spec is a JSON request
// ("run this preset, with these field overrides, on this backend") that
// pimserve accepts from untrusted clients. Decoding and resolution are
// hardened accordingly — unknown JSON keys, unknown presets/fields/
// backends, non-finite values, and resource-exhausting parameter points
// are all rejected with a client error before any work is admitted.
// FuzzScenarioSpec holds the no-panic/no-accept-garbage line.

// Spec is one scenario-evaluation request. The sweepable Field registry
// doubles as the override vocabulary, so everything pimsweep can sweep a
// client can request.
type Spec struct {
	// Preset names the base scenario (see Presets / Find).
	Preset string `json:"preset"`
	// Backend selects the model ("analytic", "queueing", "sim", "hybrid",
	// "machine"); empty picks the first backend supporting the resolved
	// scenario.
	Backend string `json:"backend,omitempty"`
	// Fields overrides named scenario knobs (SetField names) on top of
	// the preset.
	Fields map[string]float64 `json:"fields,omitempty"`
	// Seed drives the run's stochastic draws (0 is a valid seed).
	Seed uint64 `json:"seed,omitempty"`
	// Quick applies the scenario layer's quick-mode clamps.
	Quick bool `json:"quick,omitempty"`
	// Replications asks for N engine replicates (0 = 1).
	Replications int `json:"replications,omitempty"`
	// TimeoutMS is the client's per-request deadline budget in
	// milliseconds (0 = server default; the server clamps to its maximum).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// DecodeSpec parses a JSON spec strictly: unknown keys and trailing data
// are errors, so a typo'd field name can never silently run the preset
// unmodified.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("scenario: bad spec: %w", err)
	}
	// A second value (or any non-whitespace tail, JSON or not) means the
	// body was not one JSON object; only a clean EOF is acceptable.
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: bad spec: trailing data after the JSON object")
	}
	return sp, nil
}

// SpecLimits caps the resources one resolved spec may claim, so a single
// network request cannot allocate unbounded memory (machine VMs allocate
// N × MemWords words up front) or queue unbounded work. Zero or negative
// caps mean unlimited; DefaultSpecLimits admits every named preset with
// room to spare.
type SpecLimits struct {
	// MaxNodes caps Machine.N.
	MaxNodes int
	// MaxMemWords caps the per-node VM memory of machine scenarios, in
	// 64-bit words (the resolved size: a zero MemWords counts as the
	// 16384-word default).
	MaxMemWords int
	// MaxTotalMemWords caps N × per-node words for machine scenarios —
	// the actual allocation a request triggers.
	MaxTotalMemWords int
	// MaxUpdates caps the machine-program per-thread work parameter.
	MaxUpdates int
	// MaxParallelism caps Workload.Parallelism and Machine.RunParallel.
	MaxParallelism int
	// MaxReplications caps Spec.Replications.
	MaxReplications int
	// MaxW caps Workload.W (total modeled operations).
	MaxW float64
	// MaxHorizon caps Workload.Horizon (simulated cycles).
	MaxHorizon float64
}

// DefaultSpecLimits returns the serving defaults: generous enough for
// every preset (scale-1k's N=1024 / W=1e8, machine-gups-256's 256-node
// VM), tight enough that no single spec can allocate more than ~¼ GiB or
// request a multi-hour point.
func DefaultSpecLimits() SpecLimits {
	return SpecLimits{
		MaxNodes:         4096,
		MaxMemWords:      1 << 21, // 16 MiB per node
		MaxTotalMemWords: 1 << 25, // 256 MiB per request
		MaxUpdates:       1 << 20,
		MaxParallelism:   4096,
		MaxReplications:  64,
		MaxW:             1e12,
		MaxHorizon:       1e9,
	}
}

// Resolved is a fully validated, admitted spec: the scenario with every
// override applied, the concrete backend, and the run parameters.
type Resolved struct {
	Scenario     Scenario
	Backend      string
	Seed         uint64
	Quick        bool
	Replications int
	// Timeout is the client's requested deadline (0 = server default).
	Timeout time.Duration
}

// Resolve applies the spec to its preset, validates the result, and
// enforces the limits. Every rejection is a client error: the message
// names the offending knob.
func (sp Spec) Resolve(lim SpecLimits) (Resolved, error) {
	s, err := Find(sp.Preset)
	if err != nil {
		return Resolved{}, err
	}
	// Deterministic application order (and error choice) regardless of
	// map iteration.
	names := make([]string, 0, len(sp.Fields))
	for name := range sp.Fields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := sp.Fields[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Resolved{}, fmt.Errorf("scenario: field %q = %v is not finite", name, v)
		}
		// Integer-typed knobs take whole values only (SetField rejects a
		// fraction) and convert through int(v); a value beyond int64
		// range would be implementation-defined, so reject it here rather
		// than trust the conversion.
		if v > math.MaxInt64 || v < math.MinInt64 {
			return Resolved{}, fmt.Errorf("scenario: field %q = %g out of range", name, v)
		}
		if err := SetField(&s, name, v); err != nil {
			return Resolved{}, err
		}
	}
	if err := s.Validate(); err != nil {
		return Resolved{}, err
	}
	if err := checkLimits(s, lim); err != nil {
		return Resolved{}, err
	}

	backend := sp.Backend
	if backend == "" {
		supporting := SupportingBackends(s)
		if len(supporting) == 0 {
			return Resolved{}, fmt.Errorf("scenario: no backend supports %s", s.Name)
		}
		backend = supporting[0].Name()
	} else {
		b, err := FindBackend(backend)
		if err != nil {
			return Resolved{}, err
		}
		if !b.Supports(s) {
			return Resolved{}, fmt.Errorf("scenario: backend %s does not support %s (%s)",
				backend, s.Name, s.Kind())
		}
	}

	reps := sp.Replications
	switch {
	case reps < 0:
		return Resolved{}, fmt.Errorf("scenario: replications = %d (want >= 0)", reps)
	case reps == 0:
		reps = 1
	case lim.MaxReplications > 0 && reps > lim.MaxReplications:
		return Resolved{}, fmt.Errorf("scenario: replications = %d exceeds the %d cap", reps, lim.MaxReplications)
	}
	// A day-long bound keeps the ms→ns conversion far from overflow; the
	// server clamps way below it anyway.
	const maxTimeoutMS = 24 * 60 * 60 * 1000
	if sp.TimeoutMS < 0 || sp.TimeoutMS > maxTimeoutMS {
		return Resolved{}, fmt.Errorf("scenario: timeout_ms = %d out of [0, %d]", sp.TimeoutMS, maxTimeoutMS)
	}
	return Resolved{
		Scenario:     s,
		Backend:      backend,
		Seed:         sp.Seed,
		Quick:        sp.Quick,
		Replications: reps,
		Timeout:      time.Duration(sp.TimeoutMS) * time.Millisecond,
	}, nil
}

// checkLimits enforces the resource caps on a validated scenario.
func checkLimits(s Scenario, lim SpecLimits) error {
	m, w := s.Machine, s.Workload
	if lim.MaxNodes > 0 && m.N > lim.MaxNodes {
		return fmt.Errorf("scenario: N = %d exceeds the %d-node cap", m.N, lim.MaxNodes)
	}
	if lim.MaxParallelism > 0 && w.Parallelism > lim.MaxParallelism {
		return fmt.Errorf("scenario: Parallelism = %d exceeds the %d cap", w.Parallelism, lim.MaxParallelism)
	}
	if lim.MaxParallelism > 0 && m.RunParallel > lim.MaxParallelism {
		return fmt.Errorf("scenario: RunParallel = %d exceeds the %d cap", m.RunParallel, lim.MaxParallelism)
	}
	if lim.MaxW > 0 && w.W > lim.MaxW {
		return fmt.Errorf("scenario: W = %g exceeds the %g cap", w.W, lim.MaxW)
	}
	if lim.MaxHorizon > 0 && w.Horizon > lim.MaxHorizon {
		return fmt.Errorf("scenario: Horizon = %g exceeds the %g cap", w.Horizon, lim.MaxHorizon)
	}
	if s.Kind() == KindMachine {
		words := s.machineMemWords()
		if lim.MaxMemWords > 0 && words > lim.MaxMemWords {
			return fmt.Errorf("scenario: MemWords = %d exceeds the %d-word cap", words, lim.MaxMemWords)
		}
		if lim.MaxTotalMemWords > 0 && words > lim.MaxTotalMemWords/m.N {
			return fmt.Errorf("scenario: %d nodes x %d words exceeds the %d-word total cap",
				m.N, words, lim.MaxTotalMemWords)
		}
		if lim.MaxUpdates > 0 && w.Updates > lim.MaxUpdates {
			return fmt.Errorf("scenario: Updates = %d exceeds the %d cap", w.Updates, lim.MaxUpdates)
		}
	}
	return nil
}

// Key returns the canonical identity of the resolved run: two specs that
// resolve to the same key produce byte-identical results, so the serving
// layer single-flights and caches on it. The client's timeout is
// deliberately excluded — it shapes how long a caller waits, never what
// the run computes.
func (r Resolved) Key() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s|%s|seed=%d|quick=%t|reps=%d",
		r.Scenario.Name, r.Backend, r.Seed, r.Quick, r.Replications)
	// The scenario is preset+overrides; serializing every sweepable field
	// (not just the overridden ones) keeps the key honest even if two
	// presets ever alias.
	for _, f := range Fields() {
		fmt.Fprintf(&b, "|%s=%s", f.Name, strconv.FormatFloat(f.Get(r.Scenario), 'g', -1, 64))
	}
	return b.String()
}
