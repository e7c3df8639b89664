package isa

import "sync"

// Node memory is the machine's one large allocation: a scenario-sized run
// holds tens of MiB of it, so a fresh allocation per run costs far more in
// page faults than the run's own set-up. NewMachine therefore takes each
// node's memory from a pool of slabs keyed by exact word count, and
// Release hands it back, zeroed. A slab is never longer than the request,
// so a caller's bound on memWords still bounds what a machine holds.

// maxMemPools bounds the number of slab sizes the process ever pools; a
// size past the bound is allocated and dropped as if there were no pool.
const maxMemPools = 8

var memPools = struct {
	mu     sync.Mutex
	bySize map[int]*sync.Pool // slab length -> pool of *[]uint64, each zero
}{bySize: make(map[int]*sync.Pool)}

// memPool returns the pool of words-long slabs. With create set it adds
// one while fewer than maxMemPools exist; otherwise it returns nil for a
// size without a pool.
func memPool(words int, create bool) *sync.Pool {
	memPools.mu.Lock()
	defer memPools.mu.Unlock()
	p := memPools.bySize[words]
	if p == nil && create && len(memPools.bySize) < maxMemPools {
		p = new(sync.Pool)
		memPools.bySize[words] = p
	}
	return p
}

// newMem returns a zeroed slab of exactly words words: a pooled one when
// pool holds one, else a fresh allocation.
func newMem(pool *sync.Pool, words int) []uint64 {
	if pool != nil {
		if s, ok := pool.Get().(*[]uint64); ok {
			return *s
		}
	}
	return make([]uint64, words)
}

// EachNode calls f once for every node, on up to Parallelism goroutines
// that each take a contiguous block of nodes; at Parallelism ≤ 1 it is a
// plain loop on the caller's goroutine. It returns once every call has,
// so whatever f wrote is visible to the caller. f must read and write
// only state private to its node: host-side staging, verification and
// clearing of node memory, say.
func (m *Machine) EachNode(f func(n *NodeState)) {
	workers := min(m.Parallelism, len(m.Nodes))
	if workers <= 1 {
		for _, n := range m.Nodes {
			f(n)
		}
		return
	}
	block := func(w int) []*NodeState {
		return m.Nodes[w*len(m.Nodes)/workers : (w+1)*len(m.Nodes)/workers]
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(nodes []*NodeState) {
			defer wg.Done()
			for _, n := range nodes {
				f(n)
			}
		}(block(w))
	}
	for _, n := range block(0) {
		f(n)
	}
	wg.Wait()
}

// Release hands the machine's node memory back to the pool NewMachine
// takes it from, zeroing it first on up to Parallelism goroutines (see
// EachNode). The machine gives up its memory: every node's Mem is nil
// afterwards, and neither the machine nor any slice of its old memory
// may be used again. Calling Release is optional; a machine that is not
// released leaves its memory to the garbage collector.
func (m *Machine) Release() {
	if len(m.Nodes) == 0 || m.Nodes[0].Mem == nil {
		return
	}
	words := len(m.Nodes[0].Mem)
	pool := memPool(words, true)
	if pool != nil {
		m.EachNode(func(n *NodeState) { clear(n.Mem) })
	}
	for _, n := range m.Nodes {
		if pool != nil && len(n.Mem) == words && cap(n.Mem) == words {
			mem := n.Mem
			pool.Put(&mem)
		}
		n.Mem = nil
	}
}
