// Package benches holds the substrate micro-benchmark drivers shared by
// the in-repo benchmarks (internal/sim, the root bench_test.go) and the
// pimbench trajectory harness. The BENCH_<n>.json snapshot names promise
// a stable workload per name; keeping one driver per workload here means
// a tuning change cannot silently fork the measured code between `go
// test -bench` and the CI perf gate.
package benches

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/hostpim"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/parcelsys"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// KernelSchedule measures the callback-event path: schedule a batch of
// events, drain them. With the free list, steady-state scheduling reuses
// recycled event structs instead of heap-allocating one per ScheduleArg.
func KernelSchedule(b *testing.B) {
	k := sim.NewKernel()
	var sink int
	fn := func(any) { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 256
	for done := 0; done < b.N; done += batch {
		for j := 0; j < batch; j++ {
			k.ScheduleArg(sim.Time(j), fn, nil)
		}
		if _, err := k.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
	if sink < 0 {
		b.Fatal("unreachable")
	}
}

// HostPIMSimulate measures one full study-1 simulation point.
func HostPIMSimulate(b *testing.B) {
	p := hostpim.DefaultParams()
	p.PctWL = 0.5
	p.N = 16
	p.W = 1e6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hostpim.Simulate(p, hostpim.SimOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// ParcelSysRun measures one full study-2 paired run.
func ParcelSysRun(b *testing.B) {
	p := parcelsys.DefaultParams()
	p.Horizon = 20000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)
		if _, err := parcelsys.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// simParcel1K drives the big-run workload behind both sim-kernel
// parallelism benchmarks: the parcel-scale-1k scenario shape (1024 nodes
// x 8 parcels over a 500-cycle interconnect) on parcelsys, executed with
// the given worker count. One driver for both names keeps the serial
// baseline and the parallel run measuring the identical workload —
// parcelsys's results are identical for every worker count, so the ns/op
// ratio is the single-run speedup and nothing else.
func simParcel1K(b *testing.B, workers int) {
	p := parcelsys.DefaultParams()
	p.Nodes = 1024
	p.Parallelism = 8
	p.RemoteFrac = 0.4
	p.Latency = 500
	p.Horizon = 20000
	p.RunParallel = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i)
		if _, err := parcelsys.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// SimParcel1K is the serial baseline of the sim-kernel pair: the
// parcel-scale-1k workload with its two systems one after the other, one
// kernel each.
func SimParcel1K(b *testing.B) { simParcel1K(b, 1) }

// SimParcelPar is the parallel side of the sim-kernel pair: the identical
// workload at RunParallel GOMAXPROCS, floored at 2. From 2 on parcelsys
// runs its two systems side by side, one kernel and one goroutine each,
// so the run takes about as long as its test system, ~90% of the serial
// run on a 2-vCPU host, whatever the worker count.
func SimParcelPar(b *testing.B) {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	simParcel1K(b, w)
}

// MachineGUPS measures the execution-driven backend's substrate: the ISA
// interpreter running the GUPS random-update kernel on an 8-node machine
// with 4 threads per node. One Machine is Reset and re-driven per
// iteration, so the ns/op tracks the stepping loop's cost and allocs/op
// pins its slab discipline (steady state: 0).
func MachineGUPS(b *testing.B) {
	layout := isa.DefaultGUPSLayout()
	layout.Updates = 256
	prog, err := isa.GUPSProgram(layout)
	if err != nil {
		b.Fatal(err)
	}
	const nodes, threads = 8, 4
	m, err := isa.NewMachine(nodes, 16384, isa.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	entry, err := prog.Entry("main")
	if err != nil {
		b.Fatal(err)
	}
	sm := rng.SplitMix64{State: 2004}
	run := func() {
		m.Reset()
		if err := m.LoadAll(prog); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			for t := 0; t < threads; t++ {
				m.Nodes[i].StartThread(entry, sm.Next(), 0)
			}
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the slabs outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// machineGUPS256 drives the big-run workload behind both single-run
// parallelism benchmarks: GUPS on 256 nodes x 4 threads over a 16x16
// torus (the machine-gups-256 scenario preset's shape), executed on the
// given PDES worker count. One driver for both names keeps the serial
// baseline and the parallel run measuring the identical workload, so
// their ratio is the single-run speedup and nothing else.
func machineGUPS256(b *testing.B, parallelism int) {
	layout := isa.DefaultGUPSLayout()
	layout.Updates = 128
	prog, err := isa.GUPSProgram(layout)
	if err != nil {
		b.Fatal(err)
	}
	const nodes, threads, perHop = 256, 4, 20.0
	m, err := isa.NewMachine(nodes, 16384, isa.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	topo, err := network.ByName("torus", nodes)
	if err != nil {
		b.Fatal(err)
	}
	m.NetDelay = network.HopDelay(topo, perHop)
	m.NetLookahead = network.HopLookahead(topo, perHop)
	m.Parallelism = parallelism
	entry, err := prog.Entry("main")
	if err != nil {
		b.Fatal(err)
	}
	sm := rng.SplitMix64{State: 2004}
	run := func() {
		m.Reset()
		if err := m.LoadAll(prog); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			for t := 0; t < threads; t++ {
				m.Nodes[i].StartThread(entry, sm.Next(), 0)
			}
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the slabs (and worker plumbing) outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// MachineGUPS256 is the serial baseline of the big-run pair: the
// machine-gups-256 workload on one worker.
func MachineGUPS256(b *testing.B) { machineGUPS256(b, 1) }

// MachineGUPSPar is the parallel side of the big-run pair: the identical
// workload on GOMAXPROCS PDES workers. Its ns/op against MachineGUPS256's
// is the single-run speedup; on a multi-core host with P >= 4 the
// conservative windows are wide enough (one torus hop = 20 cycles) that
// the partitions dominate the barrier cost.
func MachineGUPSPar(b *testing.B) { machineGUPS256(b, runtime.GOMAXPROCS(0)) }

// MachineDecode measures the pre-decoded dispatch layer in isolation: a
// register-only countdown kernel on one node and one thread, so no
// memory stalls break the issue stream. The ns/op is (nearly) pure
// decode-and-issue cost; allocs/op pins the decoded slab's
// reuse across Reset/Load (steady state: 0).
func MachineDecode(b *testing.B) {
	prog, err := isa.Assemble(`
main:
    addi r1, r0, 4096
    lui  r2, 1
loop:
    xor r3, r1, r2
    add r4, r3, r1
    shr r5, r4, r2
    and r6, r5, r3
    or  r7, r6, r1
    sub r2, r7, r6
    addi r1, r1, -1
    bne r1, r0, loop
    halt
`)
	if err != nil {
		b.Fatal(err)
	}
	m, err := isa.NewMachine(1, 2048, isa.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	entry, err := prog.Entry("main")
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		m.Reset()
		if err := m.LoadAll(prog); err != nil {
			b.Fatal(err)
		}
		m.Nodes[0].StartThread(entry, 0, 0)
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the slabs outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// MachineFaultTreeSum measures the resilient delivery path: the treesum
// parcel fan-in on 16 nodes with the mixed fault plan armed (12% drop, 6%
// corrupt, 10% dup, 8-cycle jitter) and the seq/ack retransmit protocol
// on. Every spawn pays the injector's hash draws plus the analytic
// retransmit planning, so the delta against a fault-free treesum prices
// the whole fault layer; allocs/op pins that planning stays allocation-
// free (steady state: 0).
func MachineFaultTreeSum(b *testing.B) {
	const nodes = 16
	layout := isa.DefaultTreeSumLayout()
	prog, err := isa.TreeSumProgram(nodes, layout)
	if err != nil {
		b.Fatal(err)
	}
	m, err := isa.NewMachine(nodes, 16384, isa.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fault.New(fault.Config{
		Seed: 0x9142, DropRate: 0.12, CorruptRate: 0.06, DupRate: 0.10, JitterMax: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.Fault = plan
	m.Reliable = true
	entry, err := prog.Entry("main")
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		m.Reset()
		if err := m.LoadAll(prog); err != nil {
			b.Fatal(err)
		}
		for i, n := range m.Nodes {
			for k := 0; k < layout.DataWords; k++ {
				n.Mem[layout.DataBase+uint64(k)] = uint64(i*layout.DataWords + k)
			}
		}
		m.Nodes[0].StartThread(entry, 0, 0)
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the slabs outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// ServeSpecDecode measures the daemon's per-request admission CPU in
// isolation: strict JSON decode, preset resolution with field overrides,
// resource-limit checks, and the canonical run key. This is work pimserve
// does for every request before any queueing, so its cost bounds the
// spec-validation throughput of one core.
func ServeSpecDecode(b *testing.B) {
	body := []byte(`{"preset":"machine-gups","backend":"machine",` +
		`"fields":{"nodes":16,"updates":64},"seed":7,"quick":true}`)
	lim := scenario.DefaultSpecLimits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := scenario.DecodeSpec(body)
		if err != nil {
			b.Fatal(err)
		}
		r, err := sp.Resolve(lim)
		if err != nil {
			b.Fatal(err)
		}
		if r.Key() == "" {
			b.Fatal("empty key")
		}
	}
}

// ServeRoundTrip measures the hot serving path end to end over loopback
// HTTP: the same spec every iteration, so after the warm-up request every
// round trip is decode + resolve + single-flight lookup + result-cache
// hit + JSON response — the daemon's best case, and the floor under every
// served request's latency.
func ServeRoundTrip(b *testing.B) {
	s := serve.New(serve.Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	body := `{"preset":"paper-baseline","quick":true}`
	post := func() {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // warm: run once so the timed loop measures cache hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
