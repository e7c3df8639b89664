package sim_test

// Property-based tests of invariants under randomized activity workloads
// (internal/sim/simtest): resource conservation, store conservation,
// clock monotonicity, FIFO grant order, and work conservation.

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// TestResourceConservationProperty: for any random mix of jobs, a resource
// never exceeds its capacity, never goes negative, and every grant is
// eventually released (acquire count == release count at quiescence).
func TestResourceConservationProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, capRaw, jobsRaw uint8) bool {
		capacity := 1 + int(capRaw%8)
		jobs := 1 + int(jobsRaw%40)
		st := rng.New(seed)
		k := sim.NewKernel()
		env := simtest.New(k)
		r := simtest.NewResource(k, capacity)
		violations := 0
		releases := 0
		for j := 0; j < jobs; j++ {
			n := 1 + st.Intn(capacity)
			delay := st.Exp(5)
			hold := st.Exp(3)
			env.SpawnAt(delay, "job", run(
				acquire(r, n),
				do(func(*simtest.ActCtx) {
					if r.InUse() > capacity || r.InUse() < 0 {
						violations++
					}
				}),
				wait(hold),
				release(r, n),
				do(func(*simtest.ActCtx) { releases++ }),
			))
		}
		if _, err := env.RunUntilIdle(); err != nil {
			return false
		}
		return violations == 0 && releases == jobs && r.InUse() == 0
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// TestStoreConservationProperty: items put equals items got plus items
// still buffered, for any interleaving.
func TestStoreConservationProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, putsRaw, getsRaw uint8) bool {
		nPuts := 1 + int(putsRaw%50)
		nGets := 1 + int(getsRaw%50)
		st := rng.New(seed)
		k := sim.NewKernel()
		env := simtest.New(k)
		s := simtest.NewStore[int](k)
		got := 0
		for i := 0; i < nPuts; i++ {
			env.SpawnAt(st.Exp(3), "put", run(put(s, i)))
		}
		for i := 0; i < nGets; i++ {
			env.SpawnAt(st.Exp(3), "get", run(get(s, func(*simtest.ActCtx, int) { got++ })))
		}
		// Run bounded: excess getters stay registered and are finished.
		if err := env.Run(1e7); err != nil {
			return false
		}
		expectedGot := nGets
		if nPuts < nGets {
			expectedGot = nPuts
		}
		return got == expectedGot && s.Size() == nPuts-expectedGot &&
			int(s.Puts()) == nPuts && int(s.Gets()) == expectedGot
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// TestClockMonotonicityProperty: an activity observes non-decreasing time
// across arbitrary waits, resource holds and yields (zero waits).
func TestClockMonotonicityProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		st := rng.New(seed)
		k := sim.NewKernel()
		env := simtest.New(k)
		r := simtest.NewResource(k, 2)
		ok := true
		for i := 0; i < 10; i++ {
			last := sim.Time(0)
			check := do(func(a *simtest.ActCtx) {
				if a.Now() < last {
					ok = false
				}
				last = a.Now()
			})
			var stages []stage
			for step := 0; step < 20; step++ {
				switch st.Intn(3) {
				case 0:
					stages = append(stages, wait(st.Exp(2)))
				case 1:
					stages = append(stages, hold(r, st.Exp(1))...)
				case 2:
					stages = append(stages, once(func(a *simtest.ActCtx) bool { a.Wait(0); return false }))
				}
				stages = append(stages, check)
			}
			env.Spawn("p", run(stages...))
		}
		if _, err := env.RunUntilIdle(); err != nil {
			return false
		}
		return ok
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// TestFIFOOrderProperty: under FIFO, grant order equals enqueue order for
// single-unit requests, regardless of arrival pattern.
func TestFIFOOrderProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, jobsRaw uint8) bool {
		jobs := 2 + int(jobsRaw%30)
		st := rng.New(seed)
		k := sim.NewKernel()
		env := simtest.New(k)
		r := simtest.NewResource(k, 1)
		var grants []sim.Time // arrival times, in grant order
		for j := 0; j < jobs; j++ {
			at := st.Exp(1)
			env.SpawnAt(at, "job", run(
				acquire(r, 1),
				do(func(*simtest.ActCtx) { grants = append(grants, at) }),
				wait(st.Exp(4)),
				release(r, 1),
			))
		}
		if _, err := env.RunUntilIdle(); err != nil {
			return false
		}
		for i := 1; i < len(grants); i++ {
			if grants[i] < grants[i-1] {
				return false
			}
		}
		return len(grants) == jobs
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// TestWorkConservationProperty: a single-server resource with queued work
// never idles — total busy time equals total demanded service when demand
// exceeds the horizon.
func TestWorkConservationProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		st := rng.New(seed)
		k := sim.NewKernel()
		env := simtest.New(k)
		r := simtest.NewResource(k, 1)
		// Offer 2x the horizon in service demand, all arriving at t=0.
		const horizon = 1000.0
		demand := 0.0
		for demand < 2*horizon {
			d := st.Exp(20)
			demand += d
			env.Spawn("job", run(hold(r, d)...))
		}
		if err := env.Run(horizon); err != nil {
			return false
		}
		util := r.Utilization(horizon)
		return util > 0.999
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}
