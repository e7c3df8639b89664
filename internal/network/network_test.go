package network

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFlatNetwork(t *testing.T) {
	f := NewFlat(8, 100)
	if f.Latency(0, 0) != 0 {
		t.Error("local latency != 0")
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j && f.Latency(i, j) != 100 {
				t.Fatalf("Latency(%d,%d) = %g", i, j, f.Latency(i, j))
			}
		}
	}
	if f.Nodes() != 8 {
		t.Errorf("Nodes = %d", f.Nodes())
	}
}

func TestFlatNetworkBoundsPanic(t *testing.T) {
	f := NewFlat(4, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Latency(0, 4)
}

func TestRingHops(t *testing.T) {
	r := Ring{N: 8}
	cases := []struct{ a, b, want int }{
		{0, 1, 1}, {0, 4, 4}, {0, 7, 1}, {2, 6, 4}, {1, 5, 4}, {0, 5, 3},
	}
	for _, c := range cases {
		if got := r.Hops(c.a, c.b); got != c.want {
			t.Errorf("ring Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if r.Diameter() != 4 {
		t.Errorf("diameter = %d", r.Diameter())
	}
}

func TestMeshHops(t *testing.T) {
	m := Mesh2D{W: 4, H: 4}
	if got := m.Hops(0, 15); got != 6 {
		t.Errorf("mesh corner-to-corner = %d, want 6", got)
	}
	if got := m.Hops(5, 6); got != 1 {
		t.Errorf("mesh neighbor = %d, want 1", got)
	}
	if m.Diameter() != 6 {
		t.Errorf("diameter = %d", m.Diameter())
	}
}

func TestTorusHops(t *testing.T) {
	tr := Torus2D{W: 4, H: 4}
	// Corner to corner wraps: 1 hop in each dimension.
	if got := tr.Hops(0, 15); got != 2 {
		t.Errorf("torus corner wrap = %d, want 2", got)
	}
	if tr.Diameter() != 4 {
		t.Errorf("diameter = %d", tr.Diameter())
	}
	// Torus never exceeds mesh distance.
	m := Mesh2D{W: 4, H: 4}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if tr.Hops(i, j) > m.Hops(i, j) {
				t.Fatalf("torus (%d,%d) worse than mesh", i, j)
			}
		}
	}
}

func TestHypercubeHops(t *testing.T) {
	h := Hypercube{Dim: 4}
	if h.Nodes() != 16 {
		t.Errorf("nodes = %d", h.Nodes())
	}
	if got := h.Hops(0b0000, 0b1111); got != 4 {
		t.Errorf("antipodal hops = %d, want 4", got)
	}
	if got := h.Hops(0b0101, 0b0100); got != 1 {
		t.Errorf("neighbor hops = %d, want 1", got)
	}
}

func TestValidateAllTopologies(t *testing.T) {
	topos := []Topology{
		Ring{N: 2}, Ring{N: 7}, Ring{N: 8},
		Mesh2D{W: 3, H: 5}, Mesh2D{W: 4, H: 4},
		Torus2D{W: 4, H: 4}, Torus2D{W: 5, H: 3},
		Hypercube{Dim: 1}, Hypercube{Dim: 4},
	}
	for _, topo := range topos {
		if err := Validate(topo); err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

func TestHopNetworkLatency(t *testing.T) {
	h := NewHop(Ring{N: 8}, 10, 5)
	if got := h.Latency(0, 4); got != 45 {
		t.Errorf("latency = %g, want 45", got)
	}
	if h.Latency(3, 3) != 0 {
		t.Error("local latency != 0")
	}
}

func TestMeanHopsRing(t *testing.T) {
	// Ring of 4: distances from any node are 1, 2, 1 -> mean 4/3.
	got := MeanHops(Ring{N: 4})
	if math.Abs(got-4.0/3.0) > 1e-12 {
		t.Errorf("mean hops = %g, want 4/3", got)
	}
}

func TestEquivalentFlatLatency(t *testing.T) {
	h := NewHop(Ring{N: 4}, 30, 12)
	want := 12 + 30*4.0/3.0
	if got := EquivalentFlatLatency(h); math.Abs(got-want) > 1e-12 {
		t.Errorf("equivalent flat = %g, want %g", got, want)
	}
}

func TestHypercubeBeatsRingAtScale(t *testing.T) {
	// The log-diameter topology must have lower mean hops for n = 64.
	ring := MeanHops(Ring{N: 64})
	cube := MeanHops(Hypercube{Dim: 6})
	if cube >= ring {
		t.Errorf("hypercube mean hops %g not below ring %g", cube, ring)
	}
}

func TestTopologySymmetryProperty(t *testing.T) {
	topos := []Topology{Ring{N: 13}, Mesh2D{W: 5, H: 7}, Torus2D{W: 6, H: 4}, Hypercube{Dim: 5}}
	for _, topo := range topos {
		n := topo.Nodes()
		err := quick.Check(func(a, b uint16) bool {
			i, j := int(a)%n, int(b)%n
			return topo.Hops(i, j) == topo.Hops(j, i)
		}, &quick.Config{MaxCount: 300})
		if err != nil {
			t.Errorf("%s: %v", topo.Name(), err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, c := range []struct {
		name  string
		n     int
		wants string // expected Topology.Name(), "" = nil (flat)
		ok    bool
	}{
		{"", 4, "", true},
		{"flat", 4, "", true},
		{"ring", 5, "ring(5)", true},
		{"mesh", 16, "mesh(4x4)", true},
		{"torus", 9, "torus(3x3)", true},
		{"hypercube", 8, "hypercube(3)", true},
		{"mesh", 10, "", false},
		{"torus", 12, "", false},
		{"hypercube", 12, "", false},
		{"pretzel", 4, "", false},
		{"ring", 0, "", false},
	} {
		topo, err := ByName(c.name, c.n)
		if c.ok != (err == nil) {
			t.Errorf("ByName(%q, %d): err = %v, want ok=%v", c.name, c.n, err, c.ok)
			continue
		}
		got := ""
		if topo != nil {
			got = topo.Name()
		}
		if got != c.wants {
			t.Errorf("ByName(%q, %d) = %q, want %q", c.name, c.n, got, c.wants)
		}
	}
	if len(TopologyNames()) != 5 {
		t.Errorf("TopologyNames = %v", TopologyNames())
	}
}
