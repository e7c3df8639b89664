package gang

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestRounds: every member runs exactly once per round, Run returns only
// after all have, and what the caller writes before Run and the members
// write during it is seen on the other side (the race detector checks
// the ordering).
func TestRounds(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		var round int
		got := make([]int, n)
		runs := make([]int, n)
		g := New(n, func(i int) {
			got[i] = round * (i + 1)
			runs[i]++
		})
		for r := 1; r <= 200; r++ {
			round = r
			g.Run()
			for i := range got {
				if got[i] != r*(i+1) || runs[i] != r {
					t.Fatalf("n=%d round %d: member %d wrote %d after %d runs", n, r, i, got[i], runs[i])
				}
			}
		}
		g.Close()
		g.Close() // idempotent
	}
}

// TestUnevenRounds: a member that takes much longer than the spin bound
// makes the others park, and the rounds still complete in lockstep.
func TestUnevenRounds(t *testing.T) {
	var sum atomic.Int64
	g := New(3, func(i int) {
		if i == 2 {
			time.Sleep(2 * spinFor)
		}
		sum.Add(int64(i))
	})
	defer g.Close()
	for r := 1; r <= 10; r++ {
		g.Run()
		if got := sum.Load(); got != int64(3*r) {
			t.Fatalf("round %d: sum %d, want %d", r, got, 3*r)
		}
	}
}

// TestCloseStopsHelpers: Close returns only once every helper has
// exited, whether the gang ran rounds or none.
func TestCloseStopsHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, rounds := range []int{0, 1, 50} {
		g := New(4, func(int) {})
		for r := 0; r < rounds; r++ {
			g.Run()
		}
		g.Close()
		testutil.WaitGoroutines(t, base, fmt.Sprintf("after %d rounds and Close", rounds))
	}
}

// TestSpinPolicy: a gang spins only while the members of all open gangs
// fit in GOMAXPROCS and the CPUs the process may use.
func TestSpinPolicy(t *testing.T) {
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	over := New(procs+1, func(int) {})
	if over.spins() {
		t.Errorf("a gang of %d spins at %d processors", procs+1, procs)
	}
	over.Close()

	fit := New(procs, func(int) {})
	if !fit.spins() {
		t.Errorf("a gang of %d alone does not spin at %d processors", procs, procs)
	}
	other := New(1, func(int) {})
	if fit.spins() || other.spins() {
		t.Errorf("gangs of %d and 1 spin together at %d processors", procs, procs)
	}
	other.Close()
	if !fit.spins() {
		t.Errorf("a gang of %d does not spin again after the other closed", procs)
	}
	fit.Close()
	if n := open.Load(); n != 0 {
		t.Errorf("%d members still counted open after every Close", n)
	}
}

// TestRunAfterClosePanics pins the misuse guard.
func TestRunAfterClosePanics(t *testing.T) {
	g := New(2, func(int) {})
	g.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Run after Close did not panic")
		}
	}()
	g.Run()
}

// BenchmarkRound times one empty round: the barrier's own cost.
func BenchmarkRound(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(map[int]string{2: "members2", 4: "members4"}[n], func(b *testing.B) {
			g := New(n, func(int) {})
			defer g.Close()
			for i := 0; i < b.N; i++ {
				g.Run()
			}
		})
	}
}
