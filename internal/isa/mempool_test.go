package isa

import (
	"slices"
	"sync"
	"testing"
)

// TestReleasedMemoryComesBackZero dirties every word of a machine's
// memory, releases it, and builds a machine of the same size: its memory
// must be all zero and exactly the requested length. The pool may drop a
// released slab (the race detector makes it drop some on purpose), so
// the test repeats until it sees a slab come back; without the race
// detector the first try does.
func TestReleasedMemoryComesBackZero(t *testing.T) {
	const nodes, words = 3, 4096
	reused := false
	for try := 0; try < 50 && !reused; try++ {
		m, err := NewMachine(nodes, words, DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		m.Parallelism = try%3 + 1
		old := make(map[*uint64]bool)
		for _, n := range m.Nodes {
			for k := range n.Mem {
				n.Mem[k] = uint64(k)*7 + 1
			}
			old[&n.Mem[0]] = true
		}
		m.Release()
		for _, n := range m.Nodes {
			if n.Mem != nil {
				t.Fatalf("node %d keeps its memory after Release", n.ID)
			}
		}
		m2, err := NewMachine(nodes, words, DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range m2.Nodes {
			if len(n.Mem) != words || cap(n.Mem) != words {
				t.Fatalf("node %d: len %d cap %d, want exactly %d", n.ID, len(n.Mem), cap(n.Mem), words)
			}
			if i := slices.IndexFunc(n.Mem, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Fatalf("node %d: word %d = %d in a new machine's memory", n.ID, i, n.Mem[i])
			}
			reused = reused || old[&n.Mem[0]]
		}
		m2.Release()
	}
	if !reused && !raceEnabled {
		t.Error("no released slab was reused in 50 tries")
	}
}

// TestPooledSlabNeverLarger: a slab released at one size is never handed
// to a request of another size, so memWords bounds what a machine holds.
func TestPooledSlabNeverLarger(t *testing.T) {
	big, err := NewMachine(2, 8192, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	big.Release()
	m, err := NewMachine(2, 2048, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range m.Nodes {
		if len(n.Mem) != 2048 || cap(n.Mem) != 2048 {
			t.Errorf("node %d: len %d cap %d, want exactly 2048", n.ID, len(n.Mem), cap(n.Mem))
		}
	}
}

// TestMemPoolsBounded: past maxMemPools distinct sizes, a new size gets
// no pool; its machines still come up zeroed and release cleanly.
func TestMemPoolsBounded(t *testing.T) {
	memPools.mu.Lock()
	saved := memPools.bySize
	memPools.bySize = make(map[int]*sync.Pool)
	memPools.mu.Unlock()
	defer func() {
		memPools.mu.Lock()
		memPools.bySize = saved
		memPools.mu.Unlock()
	}()
	for i := 0; i < maxMemPools+3; i++ {
		m, err := NewMachine(1, 64+i, DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		m.Nodes[0].Mem[0] = 9
		m.Release()
	}
	if got := len(memPools.bySize); got != maxMemPools {
		t.Errorf("%d keyed pools, want the bound %d", got, maxMemPools)
	}
	if memPool(64+maxMemPools, false) != nil {
		t.Error("a size past the bound got a pool")
	}
	m, err := NewMachine(1, 64+maxMemPools, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes[0].Mem[0] != 0 {
		t.Error("unpooled size came back dirty")
	}
}

// TestEachNodeVisitsEveryNodeOnce at worker counts below, at and above
// the node count; at Parallelism ≤ 1 every call runs on the caller's
// goroutine, in node order.
func TestEachNodeVisitsEveryNodeOnce(t *testing.T) {
	m, err := NewMachine(5, 16, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3, 4}
	for _, p := range []int{0, 1, 2, 3, 5, 8} {
		m.Parallelism = p
		var mu sync.Mutex
		var order []int
		m.EachNode(func(n *NodeState) {
			mu.Lock()
			order = append(order, n.ID)
			mu.Unlock()
		})
		if p <= 1 && !slices.Equal(order, all) {
			t.Errorf("Parallelism %d: order %v, want node order", p, order)
		}
		if slices.Sort(order); !slices.Equal(order, all) {
			t.Errorf("Parallelism %d: visited %v, want each of %v once", p, order, all)
		}
	}
}
