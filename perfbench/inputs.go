package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
)

// workloadsJSON pins every workload input: experiment IDs, run overrides,
// (preset, backend) pairs and the latency limit.
//
//go:embed workloads.json
var workloadsJSON []byte

type inputs struct {
	Repro struct {
		Why         string   `json:"why"`
		ConfigSeed  uint64   `json:"config_seed"`
		Quick       bool     `json:"quick"`
		Experiments []string `json:"experiments"`
	} `json:"repro"`
	Bigrun struct {
		Why       string    `json:"why"`
		WhySerial string    `json:"why_serial"`
		Quick     bool      `json:"quick"`
		Runs      []bigSpec `json:"runs"`
	} `json:"bigrun"`
	ServeCold struct {
		Why             string      `json:"why"`
		WhyPairs        string      `json:"why_pairs"`
		ExcludedPresets []string    `json:"excluded_presets"`
		Pairs           [][2]string `json:"pairs"`
		WarmSeed        uint64      `json:"warm_seed"`
		P99LimitMS      float64     `json:"p99_limit_ms"` // goodput counts 200s within it
	} `json:"serve_cold"`
}

// bigSpec is one big run. Serial is the runparallel of its serial
// formulation: 1 where runparallel 0 and 1 are the same serial run, 0
// where runparallel >= 1 selects another formulation.
type bigSpec struct {
	Layer   string             `json:"layer"`
	Preset  string             `json:"preset"`
	Backend string             `json:"backend"`
	Serial  int                `json:"serial_runparallel"`
	Fields  map[string]float64 `json:"fields"`
}

// loadInputs decodes the pinned inputs strictly and checks that everything
// they name exists: a missing experiment, preset or backend is an error,
// never a silent skip.
func loadInputs() (*inputs, error) {
	var in inputs
	if err := decodeStrict(workloadsJSON, &in); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for _, id := range in.Repro.Experiments {
		if _, err := core.Find(id); err != nil {
			return nil, fmt.Errorf("workloads.json: repro: %w", err)
		}
	}
	for _, r := range in.Bigrun.Runs {
		if r.Serial != 0 && r.Serial != 1 {
			return nil, fmt.Errorf("workloads.json: bigrun %s: serial_runparallel must be 0 or 1", r.Preset)
		}
		if _, err := r.scenario(1); err != nil {
			return nil, fmt.Errorf("workloads.json: bigrun: %w", err)
		}
	}
	sc := &in.ServeCold
	excluded := make(map[string]bool)
	for _, p := range sc.ExcludedPresets {
		if _, err := scenario.Find(p); err != nil {
			return nil, fmt.Errorf("workloads.json: serve_cold: %w", err)
		}
		excluded[p] = true
	}
	for _, p := range sc.Pairs {
		if excluded[p[0]] {
			return nil, fmt.Errorf("workloads.json: serve_cold: pair %v uses an excluded preset", p)
		}
		if _, err := resolve(scenario.Spec{Preset: p[0], Backend: p[1], Quick: true}); err != nil {
			return nil, fmt.Errorf("workloads.json: serve_cold: pair %v: %w", p, err)
		}
	}
	if len(sc.Pairs) == 0 || sc.P99LimitMS <= 0 {
		return nil, fmt.Errorf("workloads.json: serve_cold needs pairs and a positive p99_limit_ms")
	}
	return &in, nil
}

func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// scenario resolves the run's preset with its field overrides and the
// given runparallel.
func (b bigSpec) scenario(runParallel int) (scenario.Scenario, error) {
	s, err := scenario.Find(b.Preset)
	if err != nil {
		return s, err
	}
	for k, v := range b.Fields {
		if err := scenario.SetField(&s, k, v); err != nil {
			return s, err
		}
	}
	if err := scenario.SetField(&s, "runparallel", float64(runParallel)); err != nil {
		return s, err
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	b2, err := scenario.FindBackend(b.Backend)
	if err != nil {
		return s, err
	}
	if !b2.Supports(s) {
		return s, fmt.Errorf("backend %s does not support %s", b.Backend, s.Name)
	}
	return s, nil
}

// resolve applies the server's own validation to a spec.
func resolve(sp scenario.Spec) (scenario.Resolved, error) {
	return sp.Resolve(scenario.DefaultSpecLimits())
}
