// Package repro is a from-scratch Go reproduction of "Analysis and
// Modeling of Advanced PIM Architecture Design Tradeoffs" (Upchurch,
// Sterling, Brockman; SC 2004).
//
// The implementation lives under internal/: a deterministic discrete-event
// simulation kernel (internal/sim) with queueing theory
// (internal/queueing) stands in for the paper's SES/Workbench substrate;
// internal/hostpim and internal/parcelsys implement the paper's two
// studies; internal/analytic holds the closed forms; internal/scenario is
// the declarative layer above them all — one Scenario value (machine +
// workload) runs on every model backend (analytic, queueing/MVA, the DES
// simulation, the hybrid composition, and the execution-driven machine
// backend, which assembles ISA programs from internal/isa and runs them
// on the multi-node VM — programs are pre-decoded into per-node slabs
// for direct dispatch with a self-modification guard, every run goes
// through one windowed issue loop that the tests hold to a cycle-by-cycle
// reference interpreter, and one run can execute on several PDES
// workers (Machine.RunParallel) via conservative time windows whose
// results are byte-identical to serial — with internal/dram row-buffer
// timing and internal/network parcel topologies; on the simulation
// backend the same RunParallel runs parcelsys's two systems side by
// side from 2 on, one kernel each; the VM's windows use a
// spin-then-park window barrier, internal/gang)
// through a common interface, with
// named presets and a cross-backend agreement validator; internal/core
// registers one runnable experiment per table and figure (including the
// scenarios cross-validation); internal/engine executes any set of
// registered experiments concurrently on a bounded worker pool, with
// N-replication runs (derived seeds, mean/min/max/CI aggregation of
// metrics), structured progress events, and a bounded LRU result cache
// keyed by (experiment ID, Config). The pimstudy command (cmd/pimstudy)
// regenerates every artifact through the engine (-parallel,
// -replications, -json) and runs scenario presets on any backend
// (-scenario, -backend); pimsweep sweeps model parameters or scenario
// fields by name; bench_test.go at this root carries one benchmark per
// artifact plus serial-vs-engine suite benchmarks. The pimbench command
// (cmd/pimbench) is the benchmark-trajectory harness: it times the
// artifact suite and the substrate micro-benchmarks and appends a
// machine-readable BENCH_<n>.json snapshot (ns/op, allocs/op, suite
// wall-clock, git SHA), which CI compares against the committed baseline
// as a perf regression gate. Native Go fuzz targets guard the parcel wire
// codec (FuzzParcelCodec: round trip plus checksum/truncation corruption
// rejection), the assembler (FuzzAsmRoundTrip: assemble -> disassemble ->
// assemble fixed point), and the interpreter (FuzzMachineExecute: random
// images fault cleanly, never panic); CI runs each for a few seconds per
// push.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
