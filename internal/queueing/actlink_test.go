package queueing

// ActLink: a ring of stations spread across the partitions
// of a sim.ParKernel must reproduce the serial kernel's trajectory
// exactly — same absorption count, same sojourn statistics, same final
// time — for every worker count tried. The same network description runs
// both ways: on a serial kernel the link's Send degenerates to
// ScheduleArg.

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// ringSpec describes a 3-station tandem ring: source and sink on
// partition 0, one ActServer per partition, links of the given latency
// between them.
const ringLatency = 2.0

// buildRing lays the ring onto the given kernels (all the same kernel
// for a serial run). kfor(p) is partition p's kernel.
func buildRing(kfor func(p int) *sim.Kernel, jobs int64, seed uint64) (*Sink, []*ActServer) {
	k0, k1, k2 := kfor(0), kfor(1), kfor(2)
	sink := NewSink("out")
	// Wired back to front: each link needs its downstream node first.
	svc := func(k *sim.Kernel, stream uint64, mean float64) func(*Job) float64 {
		st := rng.NewWithStream(seed, stream)
		return func(*Job) float64 { return st.Exp(1 / mean) }
	}
	s2 := NewActServer(k2, "s2", 1, svc(k2, 4, 0.5), NewActLink(k2, "l20", k0, 0, ringLatency, sink))
	s1 := NewActServer(k1, "s1", 2, svc(k1, 3, 0.8), NewActLink(k1, "l12", k2, 2, ringLatency, s2))
	s0 := NewActServer(k0, "s0", 1, svc(k0, 2, 0.6), NewActLink(k0, "l01", k1, 1, ringLatency, s1))
	arr := rng.NewWithStream(seed, 1)
	src := NewActSource(k0, "src", func() float64 { return arr.Exp(1 / 1.5) }, s0)
	src.Limit = jobs
	sink.Recycle = src.Dispose
	src.Start()
	return sink, []*ActServer{s0, s1, s2}
}

// ringFingerprint is the byte-identity witness: exact float sums survive
// any trajectory difference.
type ringFingerprint struct {
	count   int64
	sojourn float64
	svcSum  [3]float64
	now     sim.Time
}

func runRingSerial(t *testing.T, jobs int64, seed uint64) ringFingerprint {
	t.Helper()
	k := sim.NewKernel()
	sink, servers := buildRing(func(int) *sim.Kernel { return k }, jobs, seed)
	now, err := k.RunUntilIdle()
	if err != nil {
		t.Fatal(err)
	}
	return fingerprintRing(sink, servers, now)
}

func fingerprintRing(sink *Sink, servers []*ActServer, now sim.Time) ringFingerprint {
	fp := ringFingerprint{count: sink.Count(), sojourn: sink.Sojourn.Sum(), now: now}
	for i, s := range servers {
		fp.svcSum[i] = s.Service.Sum()
	}
	return fp
}

func TestActLinkPartitionedRingMatchesSerial(t *testing.T) {
	const jobs, seed = 400, 17
	want := runRingSerial(t, jobs, seed)
	if want.count != jobs {
		t.Fatalf("serial ring absorbed %d of %d jobs", want.count, jobs)
	}
	for _, workers := range []int{1, 2, 3} {
		pk := sim.NewParKernel(3, workers, ringLatency)
		sink, servers := buildRing(pk.Part, jobs, seed)
		now, err := pk.RunUntilIdle()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := fingerprintRing(sink, servers, now)
		if got != want {
			t.Fatalf("workers=%d: fingerprint %+v, serial %+v", workers, got, want)
		}
	}
}

// TestActLinkSerialIsDelay: on a plain kernel an ActLink is an ActDelay
// of its latency — jobs arrive downstream exactly latency later.
func TestActLinkSerialIsDelay(t *testing.T) {
	k := sim.NewKernel()
	var at sim.Time = -1
	probe := ActNodeFunc(func(k *sim.Kernel, j *Job) { at = k.Now() })
	link := NewActLink(k, "l", k, 0, 5, probe)
	k.Schedule(3, func() { link.AcceptAct(k, &Job{}) })
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if at != 8 {
		t.Fatalf("delivery at %g, want 8", at)
	}
}
