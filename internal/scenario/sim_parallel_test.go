package scenario

// Scenario-level face of parcelsys's determinism guarantee, mirroring
// TestMachineRunParallelInvariant for the sim backend: parcel metrics
// are bit-identical for every RunParallel value, serial included, with
// the two systems run one after the other (0, 1) or side by side (2 and
// above; 4 is parcel-scale-1k's own value). (The study-1 sim path runs
// no kernel and does not read RunParallel.)

import (
	"reflect"
	"testing"
)

func TestSimParcelRunParallelInvariant(t *testing.T) {
	cfg := Config{Seed: 2004, Quick: true}
	names := []string{"fig11-point", "parcel-scale-1k"}
	if testing.Short() {
		// The 1024-node run is the CI determinism step's job (no -short);
		// the race-short pass keeps the small point.
		names = names[:1]
	}
	for _, name := range names {
		s := MustFind(name)
		s.Machine.RunParallel = 0
		want, err := Run(s, "sim", cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, p := range []int{1, 2, 3, 4} {
			s.Machine.RunParallel = p
			got, err := Run(s, "sim", cfg)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Errorf("%s: RunParallel=%d leaks into metrics:\nserial: %v\np=%d: %v",
					name, p, want.Metrics, p, got.Metrics)
			}
		}
	}
}
