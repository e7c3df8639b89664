// Package gang is the window barrier of the repository's windowed
// parallel executor, the VM's (isa.Machine with Parallelism above 1). A
// Gang runs a fixed set of members in lockstep
// rounds: the goroutine that calls Run is member 0 and runs its share of
// the round itself, and n−1 persistent helper goroutines run the rest.
// Run returns once every member has finished the round, so whatever the
// members wrote is visible to the caller, and whatever the caller wrote
// before Run is visible to the members.
//
// A round costs two waits: the helpers wait for the round to start, and
// the caller waits for the helpers. Each wait first spins on an atomic
// (the round generation, or the count of helpers still running) and
// parks on a channel only when the spin runs out. A window of the
// executors lasts microseconds, well under what a park and a wake-up
// cost, so the spin is what makes a round cheap (Mellor-Crummey & Scott,
// "Algorithms for Scalable Synchronization on Shared-Memory
// Multiprocessors", ACM TOCS 9(1), 1991). Spinning pays only when every
// spinner has a processor of its own, so a gang spins only while the
// members of all open gangs fit in GOMAXPROCS, capped at the CPUs the
// process may use, and every spin is bounded by spinFor: on an
// oversubscribed host a spinner would take the processor from the
// member it is waiting for.
package gang

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinFor bounds one wait's spin before it parks. A park costs more than
// the sleep: the wake-up can take tens of microseconds on a virtual host,
// which makes the next wait of the other side long enough to park too.
// On the 2-vCPU host a 50 µs bound let machine-dram's 2-worker run park
// ~1 400 times in its 5 700 waits; 100 µs parks a few dozen times.
const spinFor = 100 * time.Microsecond

// open counts the members of every open gang in the process.
var open atomic.Int64

// Gang runs work(0) … work(n−1) in lockstep rounds. Create it with New,
// drive it from one goroutine with Run, and Close it when done.
type Gang struct {
	work  func(member int)
	n     int
	procs int // processors the gang may spin on: min(GOMAXPROCS, NumCPU) at New

	// gen counts the rounds started; helpers wait for it to move.
	gen atomic.Uint64
	_   [56]byte
	// left counts the helpers still running the current round; the
	// caller waits for it to reach zero.
	left atomic.Int64
	_    [56]byte

	caller  waiter
	helpers []waiter

	quit   bool // set by Close before its last generation bump
	exited sync.WaitGroup
}

// waiter is one goroutine's place to park. parked is set while it
// sleeps or is about to; whoever clears it, the waiter (its condition
// came true after all) or a signaler (it made the condition true), owns
// the wake-up, so a token is sent only to a waiter that will take it.
type waiter struct {
	parked atomic.Bool
	wake   chan struct{}
	_      [48]byte
}

// New starts a gang of n members (at least one) that runs work(i) for
// member i each round. Member 0 runs on Run's caller; the n−1 helpers
// start now and run until Close.
func New(n int, work func(member int)) *Gang {
	if n < 1 {
		n = 1
	}
	g := &Gang{work: work, n: n, procs: min(runtime.GOMAXPROCS(0), runtime.NumCPU())}
	g.caller.wake = make(chan struct{}, 1)
	g.helpers = make([]waiter, n-1)
	open.Add(int64(n))
	g.exited.Add(n - 1)
	for i := range g.helpers {
		g.helpers[i].wake = make(chan struct{}, 1)
		go g.helper(i + 1)
	}
	return g
}

// Run runs one round: work(0) on the caller, work(i) on helper i, and
// returns when all have finished.
func (g *Gang) Run() {
	if g.quit {
		panic("gang: Run after Close")
	}
	if len(g.helpers) == 0 {
		g.work(0)
		return
	}
	g.left.Store(int64(len(g.helpers)))
	g.start()
	g.work(0)
	g.caller.await(g.spins(), func() bool { return g.left.Load() == 0 })
}

// start opens the next round and wakes the parked helpers.
func (g *Gang) start() {
	g.gen.Add(1)
	for i := range g.helpers {
		g.helpers[i].signal()
	}
}

// Close stops the helpers and returns once they have exited. It is
// idempotent.
func (g *Gang) Close() {
	if g.quit {
		return
	}
	g.quit = true
	g.start()
	g.exited.Wait()
	open.Add(-int64(g.n))
}

// helper is member i's loop: wait for a round, run it, report.
func (g *Gang) helper(i int) {
	defer g.exited.Done()
	w := &g.helpers[i-1]
	var seen uint64
	for {
		w.await(g.spins(), func() bool { return g.gen.Load() != seen })
		seen = g.gen.Load()
		if g.quit {
			return
		}
		g.work(i)
		if g.left.Add(-1) == 0 {
			g.caller.signal()
		}
	}
}

// spins reports whether a wait may spin: only while the members of all
// open gangs fit in the processors, GOMAXPROCS capped at the CPUs the
// process may use.
func (g *Gang) spins() bool { return open.Load() <= int64(g.procs) }

// await returns once ready() holds: it polls for up to spinFor when spin
// is set, then parks until a signal.
func (w *waiter) await(spin bool, ready func() bool) {
	if ready() {
		return
	}
	if spin {
		t0 := time.Now()
		for i := 1; ; i++ {
			if ready() {
				return
			}
			if i%64 == 0 && time.Since(t0) > spinFor {
				break
			}
		}
	}
	for {
		w.parked.Store(true)
		if ready() && w.parked.CompareAndSwap(true, false) {
			return
		}
		// Either the condition is still false, and the signaler that makes
		// it true will find parked set, or a signaler has already cleared
		// it: a token is on its way in both cases.
		<-w.wake
		// The token may be late: the caller's signal from the last helper
		// of the previous round can land after the caller saw that round
		// end by spinning and parked in the next one.
		if ready() {
			return
		}
	}
}

// signal wakes w if it has parked. Call it after making w's condition
// true.
func (w *waiter) signal() {
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}
