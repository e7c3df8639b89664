package trace_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/trace"
)

func TestRecorderCollectsKernelEvents(t *testing.T) {
	env := simtest.New(sim.NewKernel())
	rec := trace.NewRecorder()
	env.Tracer = rec
	waits := 0
	env.Spawn("worker", simtest.ActivityFunc(func(a *simtest.ActCtx) {
		if waits == 2 {
			a.Exit()
			return
		}
		waits++
		a.Wait(5)
	}))
	if _, err := env.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no events recorded")
	}
	tracks := rec.Tracks()
	if len(tracks) != 1 || tracks[0] != "worker" {
		t.Errorf("tracks = %v", tracks)
	}
}
