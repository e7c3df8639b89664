package rng

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/testutil"
)

// FuzzBinomial holds Binomial to its support: for any n >= 0 and p in
// [0, 1] every draw k satisfies 0 <= k <= n, and none panics or hangs,
// including n near math.MaxInt, where float64 no longer resolves n.
// Negative n are folded onto [0, math.MaxInt] and p outside [0, 1] onto
// it.
func FuzzBinomial(f *testing.F) {
	f.Add(math.MaxInt, 0.5, uint64(1))
	f.Add(math.MaxInt, 1e-17, uint64(2))
	f.Add(math.MaxInt-1, 0.999999, uint64(3))
	f.Add(1<<53+1, 0.3, uint64(4))
	f.Add(5000, 0.5, uint64(5))
	f.Add(4001, 0.5, uint64(6))
	f.Add(0, 0.7, uint64(7))
	f.Fuzz(func(t *testing.T, n int, p float64, seed uint64) {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Skip()
		}
		if n < 0 {
			n = -(n + 1)
		}
		if p = math.Abs(p); p > 1 {
			p = math.Mod(p, 1)
		}
		s := New(seed)
		for i := 0; i < 8; i++ {
			if k := s.Binomial(n, p); k < 0 || k > n {
				t.Fatalf("Binomial(%d, %g) = %d, outside [0, %d]", n, p, k, n)
			}
		}
	})
}

// TestBinomialBTPEChiSquare holds Binomial above n·p·(1−p) > 1000, where
// it draws by BTPE, to the exact pmf with a chi-square test. Each case
// draws 300000 variates into bins of at least 1/60 of the mass each (the
// pmf computed by its ratio recursion from the mode, the far tails folded
// into the end bins). The bound is fixed up front: the chi-square
// quantile at 1 − 1e-4 for the case's degrees of freedom, by the
// Wilson–Hilferty approximation. The cases cover p on both sides of 0.5
// (the flip), n just past the threshold, and n past 2⁵³.
func TestBinomialBTPEChiSquare(t *testing.T) {
	if testing.Short() {
		t.Skip("chi-square tests of 300000 draws per case")
	}
	const (
		draws   = 300000
		minMass = 1.0 / 60
	)
	cases := []struct {
		n int
		p float64
	}{
		{4100, 0.5}, {12000, 0.9}, {100000, 0.3}, {10000000, 0.02}, {1 << 40, 0.5}, {1<<60 + 1, 1e-13},
	}
	for i, c := range cases {
		mean := float64(c.n) * c.p
		sd := math.Sqrt(mean * (1 - c.p))
		if sd*sd <= 1000 {
			t.Fatalf("n=%d p=%g: n·p·(1−p) = %g does not reach BTPE", c.n, c.p, sd*sd)
		}
		// The pmf over mode ± 8 sd, relative to the mode, by the ratio
		// f(k+1)/f(k) = (n−k)/(k+1) · p/(1−p).
		lo := max(0, int(mean-8*sd))
		hi := min(c.n, int(mean+8*sd))
		mode := int(mean)
		pmf := make([]float64, hi-lo+1)
		pmf[mode-lo] = 1
		lr := math.Log(c.p / (1 - c.p))
		for k, l := mode, 0.0; k < hi; k++ {
			l += math.Log(float64(c.n-k)/float64(k+1)) + lr
			pmf[k+1-lo] = math.Exp(l)
		}
		for k, l := mode, 0.0; k > lo; k-- {
			l -= math.Log(float64(c.n-k+1)/float64(k)) + lr
			pmf[k-1-lo] = math.Exp(l)
		}
		var total float64
		for _, v := range pmf {
			total += v
		}
		// Bins: edges[b] is the first k of bin b + 1.
		var edges []int
		var probs []float64
		acc := 0.0
		for k := lo; k <= hi; k++ {
			acc += pmf[k-lo] / total
			if acc >= minMass {
				edges = append(edges, k+1)
				probs = append(probs, acc)
				acc = 0
			}
		}
		probs[len(probs)-1] += acc
		edges[len(edges)-1] = math.MaxInt
		counts := make([]float64, len(probs))
		s := New(uint64(1000 + i))
		for d := 0; d < draws; d++ {
			k := s.Binomial(c.n, c.p)
			b := sort.SearchInts(edges, k+1)
			counts[b]++
		}
		var chi2 float64
		for b, pr := range probs {
			e := pr * draws
			chi2 += (counts[b] - e) * (counts[b] - e) / e
		}
		df := float64(len(probs) - 1)
		bound := testutil.ChiSquareBound(df)
		if chi2 > bound {
			t.Errorf("Binomial(%d, %g): chi-square %.1f over %d bins exceeds %.1f", c.n, c.p, chi2, len(probs), bound)
		}
		t.Logf("Binomial(%d, %g): chi-square %.1f, %g df, bound %.1f", c.n, c.p, chi2, df, bound)
	}
}

// TestBinomialTinyPHugeN holds Binomial at n near math.MaxInt and
// p = 6.3e-17, where 1 − p rounds, to its mean n·p ≈ 581: the mean of
// 400 draws must lie within 5σ of it. With P(0) taken as the rounded
// (1−p)ⁿ, every leaf of the halving walked past its support and the
// draw came out ≈ n.
func TestBinomialTinyPHugeN(t *testing.T) {
	const (
		n     = math.MaxInt - 16
		p     = 6.3e-17
		draws = 400
	)
	s := New(17)
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(s.Binomial(n, p))
	}
	mean, np := sum/draws, float64(n)*p
	if sd := math.Sqrt(np * (1 - p) / draws); math.Abs(mean-np) > 5*sd {
		t.Errorf("Binomial(%d, %g): mean of %d draws %.1f, want %.1f ± %.1f", n, p, draws, mean, np, 5*sd)
	}
}

// TestLnPMFRatio holds BTPE's Stirling evaluation of ln f(y)/f(m) to the
// pmf's ratio recursion, summed term by term, within 1e-8 at ~320 points
// on each side of the mode m out to 8 sd, at three (n, p). The chi-square test cannot see an
// error this small in the acceptance bound (a wrong sign on a Stirling
// term moves it by ~1/(6y)); this test can. The published listing adds
// all four Stirling terms; ln m! + ln(n−m)! − ln y! − ln(n−y)! takes two
// of them with a minus sign.
func TestLnPMFRatio(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{4100, 0.5}, {100000, 0.3}, {10000000, 0.02}} {
		nf := float64(c.n)
		m := math.Floor(nf*c.p + c.p)
		lr := math.Log(c.p / (1 - c.p))
		sd := math.Sqrt(nf * c.p * (1 - c.p))
		step := max(1, int(sd/40))
		exact := 0.0
		for y := m; y <= m+8*sd; y++ {
			if int(y-m)%step == 0 {
				if got := lnPMFRatio(y, m, nf, c.p); math.Abs(got-exact) > 1e-8 {
					t.Errorf("n=%d p=%g y=%g: Stirling %.12g, recursion %.12g", c.n, c.p, y, got, exact)
				}
			}
			exact += math.Log((nf-y)/(y+1)) + lr
		}
		exact = 0
		for y := m; y >= m-8*sd && y >= 0; y-- {
			if int(m-y)%step == 0 {
				if got := lnPMFRatio(y, m, nf, c.p); math.Abs(got-exact) > 1e-8 {
					t.Errorf("n=%d p=%g y=%g: Stirling %.12g, recursion %.12g", c.n, c.p, y, got, exact)
				}
			}
			exact -= math.Log((nf-y+1)/y) + lr
		}
	}
}

// BenchmarkBinomial times one draw (ns/op is ns/draw) at a quick-mode
// chunk's load/store draw (100, 0.3) and miss draw (30, 0.1), a leaf at
// the halving threshold (187, 0.1), and whole-station draws at quick and
// full W, which take BTPE.
func BenchmarkBinomial(b *testing.B) {
	for _, c := range []struct {
		n int
		p float64
	}{{100, 0.3}, {30, 0.1}, {187, 0.1}, {500000, 0.3}, {50000000, 0.3}} {
		b.Run(fmt.Sprintf("n=%d,p=%g", c.n, c.p), func(b *testing.B) {
			s := New(1)
			for i := 0; i < b.N; i++ {
				_ = s.Binomial(c.n, c.p)
			}
		})
	}
}
