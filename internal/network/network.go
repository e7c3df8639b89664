// Package network models the interconnect between PIM chips.
//
// The paper's parcel study treats system-wide latency as flat — a fixed
// delay independent of source and destination ("system wide latency which
// is considered to be flat (fixed delay) for this study"). FlatNetwork
// reproduces that. For the A3 ablation we also provide hop-count
// topologies (ring, 2-D mesh/torus, hypercube) so the flat-latency
// assumption can be stress-tested.
package network

import (
	"fmt"
	"math"
)

// Network maps a (source, destination) node pair to a one-way message
// latency in cycles.
type Network interface {
	// Latency returns the one-way latency from src to dst in cycles.
	Latency(src, dst int) float64
	// Nodes returns the number of attached nodes.
	Nodes() int
}

// FlatNetwork is the paper's model: every remote message takes exactly L
// cycles, and node-local messages take zero.
type FlatNetwork struct {
	n int
	// L is the flat one-way latency in cycles.
	L float64
}

// NewFlat creates a flat network of n nodes with one-way latency l.
func NewFlat(n int, l float64) *FlatNetwork {
	if n <= 0 || l < 0 {
		panic(fmt.Sprintf("network: NewFlat(%d, %g)", n, l))
	}
	return &FlatNetwork{n: n, L: l}
}

// Latency returns L for remote pairs and 0 for src == dst.
func (f *FlatNetwork) Latency(src, dst int) float64 {
	f.check(src, dst)
	if src == dst {
		return 0
	}
	return f.L
}

// Nodes returns the node count.
func (f *FlatNetwork) Nodes() int { return f.n }

func (f *FlatNetwork) check(src, dst int) {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		panic(fmt.Sprintf("network: node pair (%d, %d) out of %d", src, dst, f.n))
	}
}

// HopNetwork computes latency as perHop × hops(src, dst) + fixed overhead,
// with hops given by a topology.
type HopNetwork struct {
	topo     Topology
	perHop   float64
	overhead float64
}

// NewHop creates a hop-count network.
func NewHop(topo Topology, perHop, overhead float64) *HopNetwork {
	if perHop < 0 || overhead < 0 {
		panic(fmt.Sprintf("network: NewHop(%g, %g)", perHop, overhead))
	}
	return &HopNetwork{topo: topo, perHop: perHop, overhead: overhead}
}

// Latency implements Network.
func (h *HopNetwork) Latency(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return h.overhead + h.perHop*float64(h.topo.Hops(src, dst))
}

// Nodes implements Network.
func (h *HopNetwork) Nodes() int { return h.topo.Nodes() }

// Topology provides minimal-route hop counts between node pairs.
type Topology interface {
	Hops(src, dst int) int
	Nodes() int
	// Diameter returns the maximum hop count over all pairs.
	Diameter() int
	Name() string
}

// Ring is a bidirectional ring of n nodes.
type Ring struct{ N int }

// Hops returns min(|i-j|, n-|i-j|).
func (r Ring) Hops(src, dst int) int {
	checkPair(src, dst, r.N)
	d := src - dst
	if d < 0 {
		d = -d
	}
	if alt := r.N - d; alt < d {
		return alt
	}
	return d
}

// Nodes returns the node count.
func (r Ring) Nodes() int { return r.N }

// Diameter returns floor(n/2).
func (r Ring) Diameter() int { return r.N / 2 }

// Name identifies the topology.
func (r Ring) Name() string { return fmt.Sprintf("ring(%d)", r.N) }

// Mesh2D is a W×H 2-D mesh with dimension-order (Manhattan) routing.
type Mesh2D struct{ W, H int }

// Hops returns the Manhattan distance.
func (m Mesh2D) Hops(src, dst int) int {
	n := m.W * m.H
	checkPair(src, dst, n)
	sx, sy := src%m.W, src/m.W
	dx, dy := dst%m.W, dst/m.W
	return abs(sx-dx) + abs(sy-dy)
}

// Nodes returns W*H.
func (m Mesh2D) Nodes() int { return m.W * m.H }

// Diameter returns (W-1)+(H-1).
func (m Mesh2D) Diameter() int { return m.W - 1 + m.H - 1 }

// Name identifies the topology.
func (m Mesh2D) Name() string { return fmt.Sprintf("mesh(%dx%d)", m.W, m.H) }

// Torus2D is a W×H 2-D torus (wraparound mesh).
type Torus2D struct{ W, H int }

// Hops returns the wrapped Manhattan distance.
func (t Torus2D) Hops(src, dst int) int {
	n := t.W * t.H
	checkPair(src, dst, n)
	sx, sy := src%t.W, src/t.W
	dx, dy := dst%t.W, dst/t.W
	hx := abs(sx - dx)
	if alt := t.W - hx; alt < hx {
		hx = alt
	}
	hy := abs(sy - dy)
	if alt := t.H - hy; alt < hy {
		hy = alt
	}
	return hx + hy
}

// Nodes returns W*H.
func (t Torus2D) Nodes() int { return t.W * t.H }

// Diameter returns floor(W/2)+floor(H/2).
func (t Torus2D) Diameter() int { return t.W/2 + t.H/2 }

// Name identifies the topology.
func (t Torus2D) Name() string { return fmt.Sprintf("torus(%dx%d)", t.W, t.H) }

// Hypercube is a 2^Dim-node binary hypercube (the EXECUBE interconnect the
// paper cites).
type Hypercube struct{ Dim int }

// Hops returns the Hamming distance between node labels.
func (h Hypercube) Hops(src, dst int) int {
	n := h.Nodes()
	checkPair(src, dst, n)
	x := src ^ dst
	hops := 0
	for x > 0 {
		hops += x & 1
		x >>= 1
	}
	return hops
}

// Nodes returns 2^Dim.
func (h Hypercube) Nodes() int { return 1 << h.Dim }

// Diameter returns Dim.
func (h Hypercube) Diameter() int { return h.Dim }

// Name identifies the topology.
func (h Hypercube) Name() string { return fmt.Sprintf("hypercube(%d)", h.Dim) }

// ByName builds the named topology over n nodes: "ring", "mesh",
// "torus" (square node counts), or "hypercube" (power-of-two node
// counts). "" and "flat" return nil — the caller's cue to use a flat
// latency instead of hop routing.
func ByName(name string, n int) (Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("network: ByName(%q, %d)", name, n)
	}
	switch name {
	case "", "flat":
		return nil, nil
	case "ring":
		return Ring{N: n}, nil
	case "mesh", "torus":
		w := intSqrt(n)
		if w*w != n {
			return nil, fmt.Errorf("network: %s needs a square node count, got %d", name, n)
		}
		if name == "mesh" {
			return Mesh2D{W: w, H: w}, nil
		}
		return Torus2D{W: w, H: w}, nil
	case "hypercube":
		d := 0
		for 1<<d < n {
			d++
		}
		if 1<<d != n {
			return nil, fmt.Errorf("network: hypercube needs a power-of-two node count, got %d", n)
		}
		return Hypercube{Dim: d}, nil
	default:
		return nil, fmt.Errorf("network: unknown topology %q (known: %v)", name, TopologyNames())
	}
}

// TopologyNames returns the names ByName accepts (besides ""), in
// flat-first presentation order.
func TopologyNames() []string {
	return []string{"flat", "ring", "mesh", "torus", "hypercube"}
}

// HopDelay returns an integer-cycle delay function over the topology at
// perHop cycles per hop — the adapter a cycle-driven machine (e.g.
// isa.Machine.NetDelay) plugs its parcel routing into.
func HopDelay(t Topology, perHop float64) func(src, dst int) int64 {
	h := NewHop(t, perHop, 0)
	return func(src, dst int) int64 {
		return int64(math.Round(h.Latency(src, dst)))
	}
}

// HopLookahead returns a lower bound on the HopDelay latency over all
// remote pairs — the conservative lookahead a time-windowed executor
// (isa.Machine.NetLookahead) can synchronize on. Topology hop counts are
// graph distances, so whenever the topology has at least two nodes some
// remote pair is adjacent and the minimum is one perHop, rounded exactly
// as HopDelay rounds (math.Round is monotone, so rounding preserves the
// bound for every longer route).
func HopLookahead(t Topology, perHop float64) int64 {
	if t == nil || t.Nodes() < 2 {
		return 0
	}
	return int64(math.Round(perHop))
}

// intSqrt returns floor(sqrt(n)) exactly (float sqrt can land one off at
// perfect squares near precision limits).
func intSqrt(n int) int {
	r := int(math.Sqrt(float64(n)))
	for r*r > n {
		r--
	}
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// MeanHops returns the average hop count over all ordered pairs with
// src != dst; used to compare topologies against a flat latency.
func MeanHops(t Topology) float64 {
	n := t.Nodes()
	if n < 2 {
		return 0
	}
	total := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				total += t.Hops(i, j)
			}
		}
	}
	return float64(total) / float64(n*(n-1))
}

// abs is integer absolute value.
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func checkPair(src, dst, n int) {
	if src < 0 || src >= n || dst < 0 || dst >= n {
		panic(fmt.Sprintf("network: node pair (%d, %d) out of %d", src, dst, n))
	}
}

// EquivalentFlatLatency returns the flat latency that matches the mean
// latency of a hop network under uniform traffic — the bridge between the
// paper's flat model and a topology-aware one.
func EquivalentFlatLatency(h *HopNetwork) float64 {
	return h.overhead + h.perHop*MeanHops(h.topo)
}

// Validate sanity-checks a topology exhaustively (symmetry, identity,
// triangle inequality) for small n. Intended for tests; cost is O(n^3).
func Validate(t Topology) error {
	n := t.Nodes()
	for i := 0; i < n; i++ {
		if t.Hops(i, i) != 0 {
			return fmt.Errorf("network: %s: Hops(%d,%d) != 0", t.Name(), i, i)
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			hij := t.Hops(i, j)
			if hij <= 0 {
				return fmt.Errorf("network: %s: Hops(%d,%d) = %d", t.Name(), i, j, hij)
			}
			if hij != t.Hops(j, i) {
				return fmt.Errorf("network: %s: asymmetric (%d,%d)", t.Name(), i, j)
			}
			if hij > t.Diameter() {
				return fmt.Errorf("network: %s: Hops(%d,%d)=%d exceeds diameter %d",
					t.Name(), i, j, hij, t.Diameter())
			}
			for k := 0; k < n; k++ {
				if t.Hops(i, k) > hij+t.Hops(j, k) {
					return fmt.Errorf("network: %s: triangle inequality violated (%d,%d,%d)",
						t.Name(), i, j, k)
				}
			}
		}
	}
	// Diameter must be achieved.
	best := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if h := t.Hops(i, j); h > best {
				best = h
			}
		}
	}
	if n > 1 && best != t.Diameter() {
		return fmt.Errorf("network: %s: declared diameter %d, actual %d", t.Name(), t.Diameter(), best)
	}
	return nil
}
