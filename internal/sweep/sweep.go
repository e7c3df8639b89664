// Package sweep is the parameter-sweep harness behind every experiment:
// it expands parameter grids into points, assigns each point a
// deterministic seed, and executes the points on a worker pool (real
// host parallelism — each simulation is single-threaded and independent).
package sweep

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Axis is one swept parameter: a name and its values.
type Axis struct {
	Name   string
	Values []float64
}

// Point is one grid point: parameter values by axis name, plus a
// deterministic seed derived from the point's coordinates.
type Point struct {
	Index  int
	Values map[string]float64
	Seed   uint64
}

// Get returns the value of the named axis; it panics on unknown names so
// misspelled axis lookups fail loudly in experiments.
func (p Point) Get(name string) float64 {
	v, ok := p.Values[name]
	if !ok {
		panic(fmt.Sprintf("sweep: point has no axis %q", name))
	}
	return v
}

// GetInt returns the named value as an int.
func (p Point) GetInt(name string) int { return int(p.Get(name)) }

// Grid is a full-factorial sweep over axes.
type Grid struct {
	axes     []Axis
	BaseSeed uint64
}

// NewGrid creates a grid; axis order fixes point enumeration order (last
// axis fastest).
func NewGrid(baseSeed uint64, axes ...Axis) (*Grid, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("sweep: grid with no axes")
	}
	seen := map[string]bool{}
	for _, a := range axes {
		if a.Name == "" {
			return nil, fmt.Errorf("sweep: axis with empty name")
		}
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q with no values", a.Name)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("sweep: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
	}
	return &Grid{axes: axes, BaseSeed: baseSeed}, nil
}

// Size returns the number of grid points.
func (g *Grid) Size() int {
	n := 1
	for _, a := range g.axes {
		n *= len(a.Values)
	}
	return n
}

// Points enumerates all grid points in deterministic order.
func (g *Grid) Points() []Point {
	n := g.Size()
	pts := make([]Point, 0, n)
	idx := make([]int, len(g.axes))
	for i := 0; i < n; i++ {
		vals := make(map[string]float64, len(g.axes))
		for ai, a := range g.axes {
			vals[a.Name] = a.Values[idx[ai]]
		}
		pts = append(pts, Point{
			Index:  i,
			Values: vals,
			Seed:   pointSeed(g.BaseSeed, i),
		})
		// Increment mixed-radix counter, last axis fastest.
		for ai := len(g.axes) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(g.axes[ai].Values) {
				break
			}
			idx[ai] = 0
		}
	}
	return pts
}

// pointSeed mixes the base seed with the point index (SplitMix64 finalizer)
// so neighbouring points get statistically unrelated seeds.
func pointSeed(base uint64, index int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Outcome pairs a point with the experiment's measured values.
type Outcome struct {
	Point   Point
	Metrics map[string]float64
	Err     error
}

// RunFunc evaluates one point, returning named metrics.
type RunFunc func(Point) (map[string]float64, error)

// Run evaluates every grid point with up to workers goroutines (0 means
// GOMAXPROCS) and returns outcomes sorted by point index. Each point's
// randomness comes only from its own Seed, so results are independent of
// scheduling.
func (g *Grid) Run(workers int, fn RunFunc) []Outcome {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pts := g.Points()
	out := make([]Outcome, len(pts))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				metrics, err := fn(pts[i])
				out[i] = Outcome{Point: pts[i], Metrics: metrics, Err: err}
			}
		}()
	}
	for i := range pts {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

// FirstError returns the first error among outcomes, if any.
func FirstError(outs []Outcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("sweep: point %d: %w", o.Point.Index, o.Err)
		}
	}
	return nil
}

// SeriesBy groups outcomes into series keyed by the value of axis
// `seriesAxis`, with x taken from axis `xAxis` and y from the named
// metric. Series and points within each series are sorted ascending.
func SeriesBy(outs []Outcome, seriesAxis, xAxis, metric string) (keys []float64, xs [][]float64, ys [][]float64) {
	group := map[float64][]Outcome{}
	for _, o := range outs {
		k := o.Point.Get(seriesAxis)
		group[k] = append(group[k], o)
	}
	for k := range group {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	for _, k := range keys {
		os := group[k]
		sort.Slice(os, func(i, j int) bool {
			return os[i].Point.Get(xAxis) < os[j].Point.Get(xAxis)
		})
		var x, y []float64
		for _, o := range os {
			x = append(x, o.Point.Get(xAxis))
			y = append(y, o.Metrics[metric])
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return keys, xs, ys
}

// Ints converts an int slice to the float64 axis values sweep expects.
func Ints(vs ...int) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}

// Floats is a convenience literal helper.
func Floats(vs ...float64) []float64 { return vs }

// Linspace returns n evenly spaced values over [lo, hi] inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		panic("sweep: Linspace with n <= 0")
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// PowersOfTwo returns {2^lo, ..., 2^hi}.
func PowersOfTwo(lo, hi int) []float64 {
	if lo > hi || lo < 0 {
		panic(fmt.Sprintf("sweep: PowersOfTwo(%d, %d)", lo, hi))
	}
	out := make([]float64, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		out = append(out, float64(int(1)<<e))
	}
	return out
}
