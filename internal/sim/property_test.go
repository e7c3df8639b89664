package sim

// Property-based tests of kernel invariants under randomized workloads:
// resource conservation, store conservation, clock monotonicity, FIFO
// grant order, and work conservation.

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestResourceConservationProperty: for any random mix of jobs, a resource
// never exceeds its capacity, never goes negative, and every grant is
// eventually released (acquire count == release count at quiescence).
func TestResourceConservationProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, capRaw, jobsRaw uint8) bool {
		capacity := 1 + int(capRaw%8)
		jobs := 1 + int(jobsRaw%40)
		st := rng.New(seed)
		k := NewKernel()
		r := NewResource(k, "res", capacity, FIFO)
		violations := 0
		releases := 0
		for j := 0; j < jobs; j++ {
			n := 1 + st.Intn(capacity)
			delay := st.Exp(5)
			hold := st.Exp(3)
			k.SpawnActivityAt(delay, "job", run(
				acquire(r, n, 0),
				do(func(*ActCtx) {
					if r.InUse() > r.Capacity() || r.InUse() < 0 {
						violations++
					}
				}),
				wait(hold),
				release(r, n),
				do(func(*ActCtx) { releases++ }),
			))
		}
		if _, err := k.RunUntilIdle(); err != nil {
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
		k := NewKernel()
		s := NewStore[int](k, "box")
		got := 0
		for i := 0; i < nPuts; i++ {
			k.SpawnActivityAt(st.Exp(3), "put", run(put(s, i)))
		}
		for i := 0; i < nGets; i++ {
			k.SpawnActivityAt(st.Exp(3), "get", run(get(s, func(*ActCtx, int) { got++ })))
		}
		// Run bounded: excess getters stay registered and are finished.
		if err := k.Run(1e7); err != nil {
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
// across arbitrary waits, resource holds and yields.
func TestClockMonotonicityProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		st := rng.New(seed)
		k := NewKernel()
		r := NewResource(k, "res", 2, FIFO)
		ok := true
		for i := 0; i < 10; i++ {
			last := Time(0)
			check := do(func(a *ActCtx) {
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
					stages = append(stages, once(func(a *ActCtx) bool { a.Yield(); return false }))
				}
				stages = append(stages, check)
			}
			k.SpawnActivity("p", run(stages...))
		}
		if _, err := k.RunUntilIdle(); err != nil {
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
		k := NewKernel()
		r := NewResource(k, "res", 1, FIFO)
		var grants []Time // arrival times, in grant order
		for j := 0; j < jobs; j++ {
			at := st.Exp(1)
			k.SpawnActivityAt(at, "job", run(
				acquire(r, 1, 0),
				do(func(*ActCtx) { grants = append(grants, at) }),
				wait(st.Exp(4)),
				release(r, 1),
			))
		}
		if _, err := k.RunUntilIdle(); err != nil {
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
		k := NewKernel()
		r := NewResource(k, "res", 1, FIFO)
		// Offer 2x the horizon in service demand, all arriving at t=0.
		const horizon = 1000.0
		demand := 0.0
		for demand < 2*horizon {
			d := st.Exp(20)
			demand += d
			k.SpawnActivity("job", run(hold(r, d)...))
		}
		if err := k.Run(horizon); err != nil {
			return false
		}
		util := r.Utilization(horizon)
		return util > 0.999
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}
