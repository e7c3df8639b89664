// Package stats provides the output-analysis statistics used by the
// simulation models: running moments (Welford), time-weighted averages for
// utilization and queue-length processes, histograms, quantile estimation,
// Student-t confidence intervals, and batch-means steady-state analysis.
//
// The paper's studies are statistical steady-state parametric models; every
// reported point is a sample statistic over a long run. This package is the
// measurement half of that methodology.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations and exposes running moments. The zero
// value is ready to use.
type Sample struct {
	n        int64
	mean     float64
	m2       float64 // sum of squared deviations (Welford)
	min, max float64
	sum      float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddN records the same observation n times.
func (s *Sample) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		s.Add(x)
	}
}

// Merge folds other into s (parallel Welford combination).
func (s *Sample) Merge(other *Sample) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	tot := n1 + n2
	s.mean += delta * n2 / tot
	s.m2 += other.m2 + delta*delta*n1*n2/tot
	s.sum += other.sum
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// N returns the number of observations.
func (s *Sample) N() int64 { return s.n }

// Mean returns the sample mean (0 if empty).
func (s *Sample) Mean() float64 { return s.mean }

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI returns the half-width of the two-sided Student-t confidence interval
// for the mean at the given confidence level (e.g. 0.95).
func (s *Sample) CI(level float64) float64 {
	if s.n < 2 {
		return math.Inf(1)
	}
	t := TQuantile(1-(1-level)/2, int(s.n-1))
	return t * s.StdErr()
}

// String summarizes the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		s.n, s.Mean(), s.StdDev(), s.Min(), s.Max())
}

// TimeWeighted accumulates a piecewise-constant process (queue length,
// busy/idle indicator) and reports its time-average. Typical use:
//
//	tw.Set(t, newValue) whenever the level changes;
//	tw.Mean(now) for the time average over [start, now].
type TimeWeighted struct {
	started  bool
	start    float64
	lastT    float64
	lastV    float64
	area     float64
	min, max float64
}

// Set records that the process takes value v from time t onward.
// Times must be non-decreasing.
func (tw *TimeWeighted) Set(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.start, tw.lastT, tw.lastV = t, t, v
		tw.min, tw.max = v, v
		return
	}
	if t < tw.lastT {
		panic(fmt.Sprintf("stats: TimeWeighted.Set time went backwards (%g < %g)", t, tw.lastT))
	}
	tw.area += tw.lastV * (t - tw.lastT)
	tw.lastT, tw.lastV = t, v
	if v < tw.min {
		tw.min = v
	}
	if v > tw.max {
		tw.max = v
	}
}

// Add is a convenience for Set(t, current+delta).
func (tw *TimeWeighted) Add(t, delta float64) { tw.Set(t, tw.lastV+delta) }

// Value returns the current level of the process.
func (tw *TimeWeighted) Value() float64 { return tw.lastV }

// Mean returns the time-average of the process over [start, now].
func (tw *TimeWeighted) Mean(now float64) float64 {
	if !tw.started || now <= tw.start {
		return 0
	}
	area := tw.area + tw.lastV*(now-tw.lastT)
	return area / (now - tw.start)
}

// Area returns the integral of the process over [start, now].
func (tw *TimeWeighted) Area(now float64) float64 {
	if !tw.started {
		return 0
	}
	return tw.area + tw.lastV*(now-tw.lastT)
}

// Min returns the minimum level seen (0 if never set).
func (tw *TimeWeighted) Min() float64 { return tw.min }

// Max returns the maximum level seen (0 if never set).
func (tw *TimeWeighted) Max() float64 { return tw.max }

// Reset clears the accumulator so that measurement restarts at time t with
// the current value retained; used to discard warm-up transients.
func (tw *TimeWeighted) Reset(t float64) {
	v := tw.lastV
	tw.started = true
	tw.start, tw.lastT, tw.lastV = t, t, v
	tw.area = 0
	tw.min, tw.max = v, v
}

// Histogram is a fixed-width bucket histogram over [Lo, Hi) with overflow
// and underflow buckets.
type Histogram struct {
	Lo, Hi  float64
	buckets []int64
	under   int64
	over    int64
	n       int64
	sample  Sample
}

// NewHistogram creates a histogram with nbuckets equal-width buckets
// spanning [lo, hi). It panics unless lo < hi and nbuckets > 0.
func NewHistogram(lo, hi float64, nbuckets int) *Histogram {
	if lo >= hi || nbuckets <= 0 {
		panic("stats: NewHistogram with invalid parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, buckets: make([]int64, nbuckets)}
}

// Add records an observation.
func (h *Histogram) Add(x float64) {
	h.n++
	h.sample.Add(x)
	switch {
	case x < h.Lo:
		h.under++
	case x >= h.Hi:
		h.over++
	default:
		idx := int(float64(len(h.buckets)) * (x - h.Lo) / (h.Hi - h.Lo))
		if idx >= len(h.buckets) { // guard float rounding at the top edge
			idx = len(h.buckets) - 1
		}
		h.buckets[idx]++
	}
}

// N returns the total number of observations.
func (h *Histogram) N() int64 { return h.n }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// Underflow and Overflow return out-of-range counts.
func (h *Histogram) Underflow() int64 { return h.under }

// Overflow returns the count of observations >= Hi.
func (h *Histogram) Overflow() int64 { return h.over }

// Mean returns the exact (non-binned) mean of all observations.
func (h *Histogram) Mean() float64 { return h.sample.Mean() }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by linear
// interpolation within the histogram buckets. Underflow mass is treated as
// sitting at Lo and overflow mass at Hi.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.sample.Min()
	}
	if q >= 1 {
		return h.sample.Max()
	}
	target := q * float64(h.n)
	acc := float64(h.under)
	if acc >= target {
		return h.Lo
	}
	width := (h.Hi - h.Lo) / float64(len(h.buckets))
	for i, c := range h.buckets {
		if acc+float64(c) >= target {
			frac := (target - acc) / float64(c)
			return h.Lo + width*(float64(i)+frac)
		}
		acc += float64(c)
	}
	return h.Hi
}

// P2Quantile is the P² (Jain–Chlamtac) streaming quantile estimator: O(1)
// memory, no sorting, good steady-state accuracy for DES output.
type P2Quantile struct {
	p     float64
	init  []float64
	count int
	q     [5]float64 // marker heights
	n     [5]int     // marker positions
	np    [5]float64 // desired positions
	dn    [5]float64 // position increments
}

// NewP2Quantile creates an estimator for the p-quantile (0 < p < 1).
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic("stats: NewP2Quantile with p out of (0,1)")
	}
	return &P2Quantile{p: p, init: make([]float64, 0, 5)}
}

// Add records an observation.
func (e *P2Quantile) Add(x float64) {
	e.count++
	if len(e.init) < 5 {
		e.init = append(e.init, x)
		if len(e.init) == 5 {
			sort.Float64s(e.init)
			for i := 0; i < 5; i++ {
				e.q[i] = e.init[i]
				e.n[i] = i + 1
			}
			p := e.p
			e.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
			e.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
		}
		return
	}
	// Find cell k containing x and update extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for i := 0; i < 4; i++ {
			if x < e.q[i+1] {
				k = i
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := 0; i < 5; i++ {
		e.np[i] += e.dn[i]
	}
	// Adjust interior markers.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - float64(e.n[i])
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1
			if d < 0 {
				s = -1
			}
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

func (e *P2Quantile) parabolic(i, s int) float64 {
	fs := float64(s)
	ni := float64(e.n[i])
	nm := float64(e.n[i-1])
	np := float64(e.n[i+1])
	return e.q[i] + fs/(np-nm)*((ni-nm+fs)*(e.q[i+1]-e.q[i])/(np-ni)+
		(np-ni-fs)*(e.q[i]-e.q[i-1])/(ni-nm))
}

func (e *P2Quantile) linear(i, s int) float64 {
	return e.q[i] + float64(s)*(e.q[i+s]-e.q[i])/float64(e.n[i+s]-e.n[i])
}

// Value returns the current quantile estimate.
func (e *P2Quantile) Value() float64 {
	if e.count == 0 {
		return 0
	}
	if len(e.init) < 5 {
		tmp := append([]float64(nil), e.init...)
		sort.Float64s(tmp)
		idx := int(e.p * float64(len(tmp)))
		if idx >= len(tmp) {
			idx = len(tmp) - 1
		}
		return tmp[idx]
	}
	return e.q[2]
}

// N returns the number of observations seen.
func (e *P2Quantile) N() int { return e.count }

// BatchMeans implements the classical batch-means method for steady-state
// confidence intervals on autocorrelated DES output: observations are
// grouped into fixed-size batches and the batch averages are treated as
// (approximately) independent samples.
type BatchMeans struct {
	batchSize int
	cur       Sample
	batches   Sample
}

// NewBatchMeans creates a batch-means accumulator with the given batch size.
func NewBatchMeans(batchSize int) *BatchMeans {
	if batchSize <= 0 {
		panic("stats: NewBatchMeans with batchSize <= 0")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add records one raw observation.
func (b *BatchMeans) Add(x float64) {
	b.cur.Add(x)
	if int(b.cur.N()) == b.batchSize {
		b.batches.Add(b.cur.Mean())
		b.cur = Sample{}
	}
}

// NumBatches returns the number of completed batches.
func (b *BatchMeans) NumBatches() int { return int(b.batches.N()) }

// Mean returns the grand mean over completed batches.
func (b *BatchMeans) Mean() float64 { return b.batches.Mean() }

// CI returns the half-width of the confidence interval on the mean at the
// given level, computed over batch means.
func (b *BatchMeans) CI(level float64) float64 { return b.batches.CI(level) }

// --- Student-t quantiles ---

// TQuantile returns the p-quantile of the Student-t distribution with df
// degrees of freedom (p in (0,1)). Implemented via the inverse incomplete
// beta function relationship, accurate to ~1e-8 for df >= 1.
func TQuantile(p float64, df int) float64 {
	if df <= 0 {
		panic("stats: TQuantile with df <= 0")
	}
	if p <= 0 || p >= 1 {
		panic("stats: TQuantile with p out of (0,1)")
	}
	if p == 0.5 {
		return 0
	}
	neg := p < 0.5
	if neg {
		p = 1 - p
	}
	// x = P(T > t) tail; use inverse incomplete beta:
	// if t >= 0, 2*(1-p) = I_{df/(df+t^2)}(df/2, 1/2).
	z := 2 * (1 - p)
	v := float64(df)
	x := invIncBeta(z, v/2, 0.5)
	var t float64
	if x <= 0 {
		t = math.Inf(1)
	} else {
		t = math.Sqrt(v * (1 - x) / x)
	}
	if neg {
		t = -t
	}
	return t
}

// NormalQuantile returns the p-quantile of the standard normal distribution
// using the Acklam rational approximation (|error| < 1.15e-9).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile with p out of (0,1)")
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// --- incomplete beta machinery for TQuantile ---

// lgamma wraps math.Lgamma discarding the sign (arguments here are > 0).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// incBeta returns the regularized incomplete beta function I_x(a, b) using
// the continued-fraction expansion (Numerical Recipes betacf form).
func incBeta(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(x, a, b) / a
	}
	return 1 - front*betacf(1-x, b, a)/b
}

func betacf(x, a, b float64) float64 {
	const maxIter = 300
	const eps = 3e-14
	const fpmin = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// invIncBeta returns x such that I_x(a, b) = y, by bisection refined with
// Newton steps (robust and plenty fast for the sizes used here).
func invIncBeta(y, a, b float64) float64 {
	if y <= 0 {
		return 0
	}
	if y >= 1 {
		return 1
	}
	lo, hi := 0.0, 1.0
	x := 0.5
	for i := 0; i < 200; i++ {
		v := incBeta(x, a, b)
		if math.Abs(v-y) < 1e-12 {
			break
		}
		if v < y {
			lo = x
		} else {
			hi = x
		}
		x = (lo + hi) / 2
	}
	return x
}

// Correlate returns the Pearson correlation coefficient of paired series x
// and y. It panics if the lengths differ or are < 2.
func Correlate(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		panic("stats: Correlate needs equal-length series of at least 2")
	}
	var sx, sy Sample
	for i := range x {
		sx.Add(x[i])
		sy.Add(y[i])
	}
	cov := 0.0
	for i := range x {
		cov += (x[i] - sx.Mean()) * (y[i] - sy.Mean())
	}
	cov /= float64(len(x) - 1)
	denom := sx.StdDev() * sy.StdDev()
	if denom == 0 {
		return 0
	}
	return cov / denom
}

// LinearFit returns the least-squares slope and intercept of y against x.
// It panics if the lengths differ or are < 2.
func LinearFit(x, y []float64) (slope, intercept float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic("stats: LinearFit needs equal-length series of at least 2")
	}
	var sx, sy Sample
	for i := range x {
		sx.Add(x[i])
		sy.Add(y[i])
	}
	num, den := 0.0, 0.0
	for i := range x {
		dx := x[i] - sx.Mean()
		num += dx * (y[i] - sy.Mean())
		den += dx * dx
	}
	if den == 0 {
		return 0, sy.Mean()
	}
	slope = num / den
	intercept = sy.Mean() - slope*sx.Mean()
	return slope, intercept
}

// Autocorrelation returns the lag-k autocorrelation estimates of series x
// for k = 0..maxLag (biased estimator, the standard choice for DES output
// analysis). It panics if maxLag >= len(x) or len(x) < 2.
func Autocorrelation(x []float64, maxLag int) []float64 {
	if len(x) < 2 || maxLag >= len(x) || maxLag < 0 {
		panic("stats: Autocorrelation with invalid arguments")
	}
	var s Sample
	for _, v := range x {
		s.Add(v)
	}
	mean := s.Mean()
	denom := 0.0
	for _, v := range x {
		denom += (v - mean) * (v - mean)
	}
	out := make([]float64, maxLag+1)
	if denom == 0 {
		out[0] = 1
		return out
	}
	for k := 0; k <= maxLag; k++ {
		num := 0.0
		for i := 0; i+k < len(x); i++ {
			num += (x[i] - mean) * (x[i+k] - mean)
		}
		out[k] = num / denom
	}
	return out
}

// EffectiveSampleSize estimates the number of independent observations in
// an autocorrelated series using the initial-positive-sequence truncation:
// ESS = n / (1 + 2·Σρ_k) summed while ρ_k stays positive. Autocorrelated
// DES output (queue waits, busy indicators) has ESS far below n, which is
// why the models use batch means or replications for CIs.
func EffectiveSampleSize(x []float64) float64 {
	n := len(x)
	if n < 4 {
		return float64(n)
	}
	maxLag := n / 4
	rho := Autocorrelation(x, maxLag)
	sum := 0.0
	for k := 1; k <= maxLag; k++ {
		if rho[k] <= 0 {
			break
		}
		sum += rho[k]
	}
	ess := float64(n) / (1 + 2*sum)
	if ess > float64(n) {
		ess = float64(n)
	}
	if ess < 1 {
		ess = 1
	}
	return ess
}

// RelErr returns |a-b| / max(|a|,|b|, tiny): a symmetric relative error
// used throughout the experiment-accuracy checks.
func RelErr(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1e-300 {
		return 0
	}
	return d / m
}
