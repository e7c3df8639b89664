package isa

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

// This file extends the PDES determinism suite to faulted runs: every
// fault matrix entry (drop/corrupt/dup/jitter/straggler, alone and
// mixed) must keep the byte-identical-under-parallelism guarantee, the
// reliable retransmit protocol must complete every builtin under loss
// with verified results, and degraded runs must die with a diagnosable
// error that is itself identical across execution modes.

func mustFaultPlan(t *testing.T, cfg fault.Config) *fault.Plan {
	t.Helper()
	p, err := fault.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// faultMatrix is the injector configuration axis of the determinism
// matrix: each fault class alone, then all of them together.
func faultMatrix() map[string]fault.Config {
	return map[string]fault.Config{
		"drop":      {Seed: 11, DropRate: 0.25},
		"corrupt":   {Seed: 11, CorruptRate: 0.2},
		"dup":       {Seed: 11, DupRate: 0.3},
		"jitter":    {Seed: 11, JitterMax: 9},
		"straggler": {Seed: 11, StragglerFactor: 3},
		"mixed":     {Seed: 11, DropRate: 0.12, CorruptRate: 0.08, DupRate: 0.15, JitterMax: 6, StragglerFactor: 2},
	}
}

// faultModes trims the execution-mode matrix to the acceptance set:
// reference oracle, serial windowed, and P ∈ {1, 2, 4} with both
// contiguous and strided partitions.
func faultModes() []execMode {
	keep := map[string]bool{
		"ref": true, "serial": true,
		"p1-contig": true, "p2-contig": true, "p4-contig": true, "p4-strided": true,
	}
	var out []execMode
	for _, mode := range parallelModes() {
		if keep[mode.name] {
			out = append(out, mode)
		}
	}
	return out
}

// TestParallelFaultMatrix is the tentpole's acceptance property: under
// every nonzero fault mix, reliable-delivery runs of all four builtins
// complete, and the full fingerprint — cycles, every counter including
// the delivery counters, and all memory — is byte-identical across the
// reference, windowed, and parallel schedules. (The Test name keeps the
// CI "TestParallel" race-step prefix riding.)
func TestParallelFaultMatrix(t *testing.T) {
	for _, topo := range []string{"flat", "torus"} {
		for cfgName, cfg := range faultMatrix() {
			for progName, build := range parallelPrograms(t) {
				t.Run(topo+"/"+cfgName+"/"+progName, func(t *testing.T) {
					var want, wantMode string
					for _, mode := range faultModes() {
						m := build(t)
						applyTopology(t, m, topo)
						m.Fault = mustFaultPlan(t, cfg)
						m.Reliable = true
						got := runFingerprintWith(t, m, mode.run)
						if want == "" {
							want, wantMode = got, mode.name
							continue
						}
						if got != want {
							t.Fatalf("%s diverges from %s:\n--- %s ---\n%s--- %s ---\n%s",
								mode.name, wantMode, mode.name, got, wantMode, want)
						}
					}
				})
			}
		}
	}
}

// TestParallelFaultUnreliableDeterminism covers the datagram mode, where
// faults change program behavior (duplicates start real threads): with a
// loss-free mix (dup + jitter) every builtin still terminates, and the
// altered schedule is still byte-identical across execution modes.
func TestParallelFaultUnreliableDeterminism(t *testing.T) {
	cfg := fault.Config{Seed: 23, DupRate: 0.35, JitterMax: 7}
	for progName, build := range parallelPrograms(t) {
		t.Run(progName, func(t *testing.T) {
			var want, wantMode string
			for _, mode := range faultModes() {
				m := build(t)
				applyTopology(t, m, "torus")
				m.Fault = mustFaultPlan(t, cfg)
				m.Reliable = false
				got := runFingerprintWith(t, m, mode.run)
				if want == "" {
					want, wantMode = got, mode.name
					continue
				}
				if got != want {
					t.Fatalf("%s diverges from %s:\n--- %s ---\n%s--- %s ---\n%s",
						mode.name, wantMode, mode.name, got, wantMode, want)
				}
			}
		})
	}
}

// TestFaultZeroRateNoOp: an armed plan whose every rate is zero must be
// indistinguishable from no plan at all — same fingerprint, byte for
// byte, serially and in parallel.
func TestFaultZeroRateNoOp(t *testing.T) {
	for progName, build := range parallelPrograms(t) {
		t.Run(progName, func(t *testing.T) {
			baseline := func(parallelism int) string {
				m := build(t)
				applyTopology(t, m, "torus")
				m.Parallelism = parallelism
				return runFingerprint(t, m)
			}
			zeroed := func(parallelism int) string {
				m := build(t)
				applyTopology(t, m, "torus")
				m.Fault = mustFaultPlan(t, fault.Config{Seed: 99})
				m.Reliable = true
				m.Parallelism = parallelism
				return runFingerprint(t, m)
			}
			for _, p := range []int{1, 4} {
				if got, want := zeroed(p), baseline(p); got != want {
					t.Fatalf("zero-rate plan changed the run at P=%d:\n--- zeroed ---\n%s--- baseline ---\n%s", p, got, want)
				}
			}
		})
	}
}

// TestFaultReliableTreeSumVerified drives the spawn tree under heavy
// loss and checks the *answer*, not just determinism: the fan-in sum is
// exactly right, every parcel was eventually delivered, and the retry
// accounting balances (each retransmission pays for one drop or
// corruption).
func TestFaultReliableTreeSumVerified(t *testing.T) {
	const nodes = 16
	layout := DefaultTreeSumLayout()
	prog, err := TreeSumProgram(nodes, layout)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(nodes, 16384, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadAll(prog); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i, n := range m.Nodes {
		for k := 0; k < layout.DataWords; k++ {
			v := uint64(i*layout.DataWords + k + 1)
			n.Mem[layout.DataBase+uint64(k)] = v
			want += v
		}
	}
	entry, err := prog.Entry("main")
	if err != nil {
		t.Fatal(err)
	}
	m.Nodes[0].StartThread(entry, 0, 0)
	m.MaxCycles = 10_000_000
	m.Fault = mustFaultPlan(t, fault.Config{Seed: 5, DropRate: 0.3, CorruptRate: 0.15, DupRate: 0.2, JitterMax: 10})
	m.Reliable = true
	if _, err := m.Run(); err != nil {
		t.Fatalf("reliable run under 45%% attempt loss failed: %v", err)
	}
	if got := m.Nodes[0].Mem[layout.AccAddr]; got != want {
		t.Fatalf("tree sum = %d, want %d", got, want)
	}
	s := m.DeliveryStats()
	if s.Sent == 0 {
		t.Fatal("no parcels routed through the fault plan")
	}
	if s.Lost != 0 || s.Delivered != s.Sent {
		t.Fatalf("delivery incomplete: %+v", s)
	}
	if s.Retries == 0 {
		t.Fatalf("no retries under 45%% per-attempt loss: %+v", s)
	}
	if s.Retries != s.Drops+s.Corrupts {
		t.Fatalf("retry accounting off: retries=%d, drops+corrupts=%d", s.Retries, s.Drops+s.Corrupts)
	}
}

// TestFaultUnreliableTotalLossLivelock: with drop=1 in datagram mode no
// remote parcel ever lands, so the treesum root spins on a fan-in that
// can never complete until the cycle limit — and the enriched livelock
// error (cycle count, live threads, in-flight parcels) is the same
// string on every execution path, which is what makes degraded runs
// diagnosable from per-point error capture. (Ping would not do here: its
// sender halts right after the spawn, so losing the parcel ends the run
// quietly instead of hanging it.)
func TestFaultUnreliableTotalLossLivelock(t *testing.T) {
	build := parallelPrograms(t)["treesum"]
	errString := func(run func(m *Machine) (int64, error)) string {
		m := build(t)
		applyTopology(t, m, "torus")
		m.Fault = mustFaultPlan(t, fault.Config{Seed: 1, DropRate: 1})
		m.Reliable = false
		m.MaxCycles = 5000
		_, err := run(m)
		if err == nil {
			t.Fatal("total-loss run completed")
		}
		return err.Error()
	}
	want := errString(refRun)
	for _, sub := range []string{"exceeded 5000 cycles", "at cycle 5000", "live threads", "parcels in flight"} {
		if !strings.Contains(want, sub) {
			t.Fatalf("livelock error %q missing %q", want, sub)
		}
	}
	if got := errString((*Machine).Run); got != want {
		t.Fatalf("windowed livelock error diverges:\n got %q\nwant %q", got, want)
	}
	if got := errString(parallelRun(4, false)); got != want {
		t.Fatalf("parallel livelock error diverges:\n got %q\nwant %q", got, want)
	}
}

// TestFaultLivelockErrorDetail pins the satellite on a fault-free run: a
// too-small MaxCycles reports the cycle count and per-node live threads
// identically on the serial and parallel paths.
func TestFaultLivelockErrorDetail(t *testing.T) {
	build := parallelPrograms(t)["treesum"]
	errString := func(run func(m *Machine) (int64, error)) string {
		m := build(t)
		applyTopology(t, m, "torus")
		m.MaxCycles = 200
		_, err := run(m)
		if err == nil {
			t.Fatal("treesum finished in 200 cycles?")
		}
		return err.Error()
	}
	want := errString(refRun)
	if !strings.Contains(want, "exceeded 200 cycles") || !strings.Contains(want, "node") {
		t.Fatalf("livelock error %q lacks cycle/per-node detail", want)
	}
	for _, p := range []int{1, 4} {
		if got := errString(parallelRun(p, false)); got != want {
			t.Fatalf("P=%d livelock error diverges:\n got %q\nwant %q", p, got, want)
		}
	}
}

// TestFaultCrashDeterminism: a planned node crash stops the run with the
// same crash error — node, cycle, machine state — on every path.
func TestFaultCrashDeterminism(t *testing.T) {
	build := parallelPrograms(t)["treesum"]
	errString := func(run func(m *Machine) (int64, error)) string {
		m := build(t)
		applyTopology(t, m, "torus")
		m.Fault = mustFaultPlan(t, fault.Config{Seed: 2, CrashNode: 3, CrashCycle: 40})
		_, err := run(m)
		if err == nil {
			t.Fatal("crashed run reported success")
		}
		return err.Error()
	}
	want := errString(refRun)
	if !strings.Contains(want, "node 3 crashed at cycle 40") {
		t.Fatalf("crash error %q lacks node/cycle attribution", want)
	}
	if got := errString((*Machine).Run); got != want {
		t.Fatalf("windowed crash error diverges:\n got %q\nwant %q", got, want)
	}
	if got := errString(parallelRun(4, false)); got != want {
		t.Fatalf("parallel crash error diverges:\n got %q\nwant %q", got, want)
	}
}

// TestFaultStragglerSlowsRun: straggler scaling must actually cost
// cycles — the same workload with a slow subset takes strictly longer —
// while a factor-1 plan is a no-op.
func TestFaultStragglerSlowsRun(t *testing.T) {
	run := func(factor int64) int64 {
		m := parallelPrograms(t)["gups"](t)
		if factor > 0 {
			plan := mustFaultPlan(t, fault.Config{Seed: 4, StragglerFactor: factor, StragglerFrac: 0.5})
			slow := 0
			for i := range m.Nodes {
				if plan.Straggler(i) {
					slow++
				}
			}
			if factor > 1 && (slow == 0 || slow == len(m.Nodes)) {
				t.Fatalf("straggler subset degenerate: %d of %d nodes", slow, len(m.Nodes))
			}
			m.Fault = plan
		}
		cycles, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	base := run(0)
	if same := run(1); same != base {
		t.Fatalf("factor-1 straggler plan changed cycles: %d vs %d", same, base)
	}
	if slow := run(6); slow <= base {
		t.Fatalf("factor-6 stragglers did not slow the run: %d vs %d cycles", slow, base)
	}
}
