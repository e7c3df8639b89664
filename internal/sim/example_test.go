package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// server is a closed-form FIFO server: a job's arrival books the server's
// next busy period at once and schedules the departure at its end, so a
// visit costs the kernel one event at each end and no waiting machinery.
type server struct {
	k       *sim.Kernel
	free    sim.Time // when the server finishes its booked jobs
	service sim.Time
}

func (s *server) arrive(job any) {
	start := max(s.k.Now(), s.free)
	s.free = start + s.service
	fmt.Printf("t=%v: %s arrives, served %v-%v\n", s.k.Now(), job, start, s.free)
	// ScheduleArgAt lands at exactly the booked end (a delay of
	// s.free-now could round elsewhere).
	s.k.ScheduleArgAt(s.free, s.depart, job)
}

func (s *server) depart(job any) { fmt.Printf("t=%v: %s departs\n", s.k.Now(), job) }

// Events are callbacks. ScheduleArg carries an argument through the
// recycled event, so one function value serves every job.
func Example() {
	k := sim.NewKernel()
	srv := &server{k: k, service: 4}
	arrive := srv.arrive
	k.ScheduleArg(0, arrive, "job0")
	k.ScheduleArg(1, arrive, "job1")
	k.ScheduleArg(10, func(any) { fmt.Printf("t=%v: idle\n", k.Now()) }, nil)
	if _, err := k.RunUntilIdle(); err != nil {
		panic(err)
	}
	// Output:
	// t=0: job0 arrives, served 0-4
	// t=1: job1 arrives, served 4-8
	// t=4: job0 departs
	// t=8: job1 departs
	// t=10: idle
}
