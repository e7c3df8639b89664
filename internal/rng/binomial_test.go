package rng

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// FuzzBinomialTable holds BinomialTable.Sample to Stream.Binomial, whose
// leaves walk the CDF (binvWalk), draw for draw: the same values and the
// same stream state afterwards. Odd draws ask for n + tableSlots, which
// lands in the same slot and forces rebuilds, and halfway through the
// table is Reset to 1 − p. It also builds n's leaf table capped at
// 1 + seed%64 entries and holds its lookups, tail fallbacks included, to
// binvWalk at the same u.
func FuzzBinomialTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, n int, p float64, seed uint64, draws uint16) {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Skip()
		}
		if n < 0 {
			n = -n
		}
		n %= 20001
		if p = math.Abs(p); p > 1 {
			p = math.Mod(p, 1)
		}
		d := 1 + int(draws)%1000

		ref, got := New(seed), New(seed)
		var tab BinomialTable
		tab.Reset(p)
		pp := p
		for i := 0; i < d; i++ {
			if i == d/2 {
				pp = 1 - p
				tab.Reset(pp)
			}
			m := n + (i&1)*tableSlots
			want := ref.Binomial(m, pp)
			if k := tab.Sample(got, m); k != want {
				t.Fatalf("draw %d: Sample(%d) at p=%g = %d, Binomial = %d", i, m, pp, k, want)
			}
		}
		if *got != *ref {
			t.Fatalf("stream state differs after %d draws at n=%d, p=%g", d, n, p)
		}

		leaf := p
		if leaf > 0.5 {
			leaf = 1 - leaf
		}
		if n == 0 || leaf <= 0 || float64(n)*leaf > 30 && n > 64 {
			return
		}
		var tb binTable
		tb.build(n, leaf, 1+int(seed%64))
		us := New(seed ^ 0x5eed)
		for i := 0; i < d; i++ {
			u := us.Float64Open()
			if k, want := tb.invert(u, n, leaf), binvWalk(u, n, leaf); k != want {
				t.Fatalf("capped table (%d entries) at n=%d, p=%g, u=%v: %d, walk %d",
					len(tb.cum), n, leaf, u, k, want)
			}
		}
	})
}

// TestBinomialTableEdges puts u on every cumulative sum and every guide
// bucket edge of a table, and one ulp either side, where the table and
// the walk are most likely to part: each must invert to binvWalk's k.
// The cases include the largest leaves Binomial sends to a table (n·p =
// 30 at small p, n = 64 at p = 0.5); they must stop short of the cap,
// which only bounds memory.
func TestBinomialTableEdges(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{1, 0.5}, {7, 0.5}, {64, 0.5}, {64, 0.01}, {30, 0.1}, {100, 0.3},
		{187, 0.1}, {188, 0.1}, {62, 0.3}, {5000, 0.006}, {300000, 1e-4},
	}
	for _, c := range cases {
		var tab BinomialTable
		tab.Reset(c.p)
		tb := tab.table(c.n, c.p)
		var edges []float64
		edges = append(edges, tb.cum...)
		for g := range tb.guide {
			edges = append(edges, float64(g)/float64(len(tb.guide)))
		}
		checked := 0
		for _, e := range edges {
			for _, u := range []float64{math.Nextafter(e, 0), e, math.Nextafter(e, 1)} {
				if u <= 0 || u >= 1 {
					continue
				}
				checked++
				if k, want := tb.invert(u, c.n, c.p), binvWalk(u, c.n, c.p); k != want {
					t.Errorf("n=%d p=%g u=%v: table %d, walk %d", c.n, c.p, u, k, want)
				}
			}
		}
		if len(tb.cum) >= tableMaxLen {
			t.Errorf("n=%d p=%g: table reached the cap of %d sums", c.n, c.p, tableMaxLen)
		}
		if checked < 3*len(tb.cum) {
			t.Errorf("n=%d p=%g: only %d edge points in (0,1) for %d sums", c.n, c.p, checked, len(tb.cum))
		}
	}
}

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
		z       = 3.719 // standard normal quantile at 1 − 1e-4
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
		bound := df * math.Pow(1-2/(9*df)+z*math.Sqrt(2/(9*df)), 3)
		if chi2 > bound {
			t.Errorf("Binomial(%d, %g): chi-square %.1f over %d bins exceeds %.1f", c.n, c.p, chi2, len(probs), bound)
		}
		t.Logf("Binomial(%d, %g): chi-square %.1f, %g df, bound %.1f", c.n, c.p, chi2, df, bound)
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

// BenchmarkBinomial times one draw (ns/op is ns/draw) through the walk
// (Stream.Binomial) and through a warm BinomialTable, at hostpim's quick
// chunk (100, 0.3), its miss draw (30, 0.1), a full-mode miss leaf
// (187, 0.1), and a full-mode chunk, which takes the Normal branch.
func BenchmarkBinomial(b *testing.B) {
	for _, c := range []struct {
		n int
		p float64
	}{{100, 0.3}, {30, 0.1}, {187, 0.1}, {10000, 0.3}} {
		b.Run(fmt.Sprintf("n=%d,p=%g/walk", c.n, c.p), func(b *testing.B) {
			s := New(1)
			for i := 0; i < b.N; i++ {
				_ = s.Binomial(c.n, c.p)
			}
		})
		b.Run(fmt.Sprintf("n=%d,p=%g/table", c.n, c.p), func(b *testing.B) {
			s := New(1)
			var tab BinomialTable
			tab.Reset(c.p)
			for i := 0; i < b.N; i++ {
				_ = tab.Sample(s, c.n)
			}
		})
	}
}
