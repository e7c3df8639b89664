package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// producer puts its messages into a store, one every 5 time units.
type producer struct {
	box  *sim.Store[string]
	msgs []string
	next int
}

func (p *producer) Step(a *sim.ActCtx) {
	if a.Now() > 0 {
		p.box.PutAct(a, p.msgs[p.next]) // unbounded: always deposits
		p.next++
	}
	if p.next == len(p.msgs) {
		a.Exit()
		return
	}
	a.Wait(5)
}

// A minimal two-activity simulation: a producer feeds a store, a consumer
// drains it, the kernel interleaves them deterministically.
func Example() {
	k := sim.NewKernel()
	box := sim.NewStore[string](k, "box")
	k.SpawnActivity("producer", &producer{box: box, msgs: []string{"hello", "world"}})
	got := 0
	k.SpawnActivity("consumer", sim.ActivityFunc(func(a *sim.ActCtx) {
		for got < 2 {
			msg, ok := box.GetAct(a)
			if !ok {
				return // registered: stepped again when a message arrives
			}
			fmt.Printf("t=%v: %s\n", a.Now(), msg)
			got++
		}
		a.Exit()
	}))
	if _, err := k.RunUntilIdle(); err != nil {
		panic(err)
	}
	// Output:
	// t=5: hello
	// t=10: world
}

// job holds the cpu for 10 time units, then reports.
type job struct {
	id    int
	cpu   *sim.Resource
	state int // 0: request the cpu; 1: granted, serve; 2: served
}

func (j *job) Step(a *sim.ActCtx) {
	switch j.state {
	case 0:
		j.state = 1
		if !j.cpu.Acquire1Act(a) {
			return // queued: stepped again holding the grant
		}
		fallthrough
	case 1:
		j.state = 2
		a.Wait(10)
	case 2:
		j.cpu.Release(1)
		fmt.Printf("job %d done at t=%v\n", j.id, a.Now())
		a.Exit()
	}
}

// Resources model servers: capacity 1 makes jobs queue FIFO.
func ExampleResource() {
	k := sim.NewKernel()
	cpu := sim.NewResource(k, "cpu", 1, sim.FIFO)
	for i := 0; i < 3; i++ {
		k.SpawnActivity("job", &job{id: i, cpu: cpu})
	}
	if _, err := k.RunUntilIdle(); err != nil {
		panic(err)
	}
	fmt.Printf("utilization: %.0f%%\n", 100*cpu.Utilization(k.Now()))
	// Output:
	// job 0 done at t=10
	// job 1 done at t=20
	// job 2 done at t=30
	// utilization: 100%
}
