package isa

import (
	"errors"
	"sync/atomic"
	"testing"
)

// spinSrc is an unconditional infinite loop: without cancellation (or a
// cycle limit) Run would never return.
const spinSrc = "main:\nloop:\n    beq r0, r0, loop\n"

// cancelAfter returns a Cancel hook that fires on the nth poll.
func cancelAfter(n int64) func() bool {
	var polls atomic.Int64
	return func() bool { return polls.Add(1) >= n }
}

// TestCancelStopsRun proves the Cancel hook actually terminates all three
// window shapes — one-cycle windows (a NetDelay hook without a declared
// lookahead), lookahead-wide serial windows, and parallel PDES — on a
// program that would otherwise spin to the cycle limit.
func TestCancelStopsRun(t *testing.T) {
	const backstop = 5_000_000 // guards the test if cancellation breaks
	cases := []struct {
		name  string
		build func(t *testing.T) *Machine
	}{
		{"one-cycle-windows", func(t *testing.T) *Machine {
			m := mustMachine(t, spinSrc, 2)
			m.NetDelay = func(src, dst int) int64 { return 5 }
			return m
		}},
		{"windowed", func(t *testing.T) *Machine {
			return mustMachine(t, spinSrc, 2)
		}},
		{"parallel", func(t *testing.T) *Machine {
			m := mustMachine(t, spinSrc, 4)
			m.Parallelism = 2
			return m
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.build(t)
			m.MaxCycles = backstop
			m.Cancel = cancelAfter(10)
			cycles, err := m.Run()
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v at cycle %d, want ErrCanceled", err, cycles)
			}
			if cycles >= backstop {
				t.Fatalf("run only stopped at the %d-cycle backstop", backstop)
			}
		})
	}
}

// TestNilCancelUnchanged pins that an unset hook changes nothing: the spin
// program still runs out the cycle limit with the usual livelock error.
func TestNilCancelUnchanged(t *testing.T) {
	m := mustMachine(t, spinSrc, 1)
	m.MaxCycles = 1000
	if _, err := m.Run(); err == nil || errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want the cycle-limit error", err)
	}
}
