package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/100 outputs", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewWithStream(42, 0)
	b := NewWithStream(42, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different streams matched %d/100 outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	s := New(7)
	child := s.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if s.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split stream matched parent %d/100 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		u := s.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", u)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestUint64nUnbiasedSmall(t *testing.T) {
	s := New(5)
	const n, buckets = 600000, 6
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[s.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.02 {
			t.Errorf("bucket %d count %d deviates from %g by > 2%%", i, c, want)
		}
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.Uint64n(8)
		if v >= 8 {
			t.Fatalf("Uint64n(8) = %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestExpMeanAndVariance(t *testing.T) {
	s := New(21)
	const n = 200000
	const mean = 4.0
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Exp(mean)
		if x < 0 {
			t.Fatalf("negative exponential variate %g", x)
		}
		sum += x
		sumsq += x * x
	}
	m := sum / n
	v := sumsq/n - m*m
	if math.Abs(m-mean)/mean > 0.02 {
		t.Errorf("exp mean = %g, want %g", m, mean)
	}
	if math.Abs(v-mean*mean)/(mean*mean) > 0.05 {
		t.Errorf("exp variance = %g, want %g", v, mean*mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(31)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Normal(10, 3)
		sum += x
		sumsq += x * x
	}
	m := sum / n
	v := sumsq/n - m*m
	if math.Abs(m-10) > 0.05 {
		t.Errorf("normal mean = %g, want 10", m)
	}
	if math.Abs(v-9) > 0.2 {
		t.Errorf("normal variance = %g, want 9", v)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(33)
	for i := 0; i < 10000; i++ {
		if x := s.LogNormal(0, 1); x <= 0 {
			t.Fatalf("lognormal variate %g <= 0", x)
		}
	}
}

func TestErlangMean(t *testing.T) {
	s := New(41)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Erlang(3, 2)
	}
	m := sum / n
	if math.Abs(m-6)/6 > 0.02 {
		t.Errorf("Erlang(3, 2) mean = %g, want 6", m)
	}
}

func TestGammaMean(t *testing.T) {
	s := New(43)
	for _, tc := range []struct{ alpha, theta float64 }{{0.5, 2}, {1, 1}, {4.5, 3}} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += s.Gamma(tc.alpha, tc.theta)
		}
		m := sum / n
		want := tc.alpha * tc.theta
		if math.Abs(m-want)/want > 0.03 {
			t.Errorf("Gamma(%g,%g) mean = %g, want %g", tc.alpha, tc.theta, m, want)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(51)
	const n = 200000
	const p = 0.25
	sum := 0.0
	for i := 0; i < n; i++ {
		g := s.Geometric(p)
		if g < 0 {
			t.Fatalf("negative geometric variate %d", g)
		}
		sum += float64(g)
	}
	m := sum / n
	want := (1 - p) / p // 3
	if math.Abs(m-want)/want > 0.03 {
		t.Errorf("geometric mean = %g, want %g", m, want)
	}
	if s.Geometric(1) != 0 {
		t.Error("Geometric(1) != 0")
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(61)
	for _, mean := range []float64{0.5, 4, 25, 80} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		m := sum / n
		if math.Abs(m-mean)/mean > 0.05 {
			t.Errorf("Poisson(%g) mean = %g", mean, m)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	s := New(63)
	cases := []struct {
		n int
		p float64
	}{
		{10, 0.3}, {100, 0.1}, {1000, 0.02}, {5000, 0.3}, {100000, 0.3}, {50, 0.9},
	}
	for _, c := range cases {
		const reps = 20000
		sum, sumsq := 0.0, 0.0
		for i := 0; i < reps; i++ {
			k := s.Binomial(c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("Binomial(%d, %g) = %d out of range", c.n, c.p, k)
			}
			sum += float64(k)
			sumsq += float64(k) * float64(k)
		}
		mean := sum / reps
		wantMean := float64(c.n) * c.p
		if math.Abs(mean-wantMean)/wantMean > 0.03 {
			t.Errorf("Binomial(%d, %g) mean = %g, want %g", c.n, c.p, mean, wantMean)
		}
		v := sumsq/reps - mean*mean
		wantVar := float64(c.n) * c.p * (1 - c.p)
		if math.Abs(v-wantVar)/wantVar > 0.1 {
			t.Errorf("Binomial(%d, %g) variance = %g, want %g", c.n, c.p, v, wantVar)
		}
	}
}

func TestBinomialDegenerate(t *testing.T) {
	s := New(64)
	if s.Binomial(10, 0) != 0 {
		t.Error("p=0 gave successes")
	}
	if s.Binomial(10, 1) != 10 {
		t.Error("p=1 missed successes")
	}
	if s.Binomial(0, 0.5) != 0 {
		t.Error("n=0 gave successes")
	}
}

func TestTriangularBoundsAndMean(t *testing.T) {
	s := New(71)
	const lo, mode, hi = 2.0, 3.0, 7.0
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := s.Triangular(lo, mode, hi)
		if x < lo || x > hi {
			t.Fatalf("triangular variate %g out of [%g, %g]", x, lo, hi)
		}
		sum += x
	}
	m := sum / n
	want := (lo + mode + hi) / 3
	if math.Abs(m-want)/want > 0.02 {
		t.Errorf("triangular mean = %g, want %g", m, want)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(81)
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %g", frac)
	}
}

func TestZipfDistribution(t *testing.T) {
	s := New(91)
	z := NewZipf(100, 1.0)
	const n = 200000
	counts := make([]int, 101)
	for i := 0; i < n; i++ {
		v := z.Sample(s)
		if v < 1 || v > 100 {
			t.Fatalf("Zipf sample %d out of [1,100]", v)
		}
		counts[v]++
	}
	// P(1)/P(2) should be ~2 for theta=1.
	ratio := float64(counts[1]) / float64(counts[2])
	if math.Abs(ratio-2) > 0.25 {
		t.Errorf("Zipf P(1)/P(2) = %g, want ~2", ratio)
	}
	if counts[1] <= counts[50] {
		t.Error("Zipf head not heavier than tail")
	}
}

func TestDiscreteWeights(t *testing.T) {
	s := New(101)
	w := []float64{1, 0, 3}
	const n = 100000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		counts[s.Discrete(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.25 {
		t.Errorf("Discrete ratio = %g, want ~3", ratio)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(111)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	s := New(121)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum2 := 0
	for _, v := range xs {
		sum2 += v
	}
	if sum != sum2 {
		t.Errorf("shuffle changed elements: %v", xs)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs for seed 1234567 from the public-domain SplitMix64.
	sm := SplitMix64{State: 1234567}
	first := sm.Next()
	second := sm.Next()
	if first == second {
		t.Fatal("SplitMix64 repeated output")
	}
	sm2 := SplitMix64{State: 1234567}
	if sm2.Next() != first {
		t.Fatal("SplitMix64 not deterministic")
	}
}

// TestSplitMix64Skip holds Skip(k) to k calls of Next. A k too large to
// step through is checked by wrap-around: 2·(2⁶³+5) ≡ 10 mod 2⁶⁴, the
// state's period, so skipping 2⁶³+5 twice lands where ten Next calls do.
func TestSplitMix64Skip(t *testing.T) {
	const seed = 0x6d616368696e65
	for _, k := range []uint64{0, 1, 2, 1e6} {
		want := SplitMix64{State: seed}
		for i := uint64(0); i < k; i++ {
			want.Next()
		}
		got := SplitMix64{State: seed}
		got.Skip(k)
		if got != want {
			t.Errorf("Skip(%d): state %#x, want %#x", k, got.State, want.State)
		}
		if g, w := got.Next(), want.Next(); g != w {
			t.Errorf("Skip(%d): next output %#x, want %#x", k, g, w)
		}
	}
	const huge = 1<<63 + 5
	want := SplitMix64{State: seed}
	for i := 0; i < 10; i++ {
		want.Next()
	}
	got := SplitMix64{State: seed}
	got.Skip(huge)
	if got == want {
		t.Fatalf("Skip(2^63+5) landed where 10 Next calls do")
	}
	got.Skip(huge)
	if got != want {
		t.Errorf("Skip(2^63+5) twice: state %#x, want %#x (10 Next calls)", got.State, want.State)
	}
}

func TestUint64nNeverExceedsBound(t *testing.T) {
	s := New(131)
	err := quick.Check(func(bound uint64) bool {
		if bound == 0 {
			bound = 1
		}
		return s.Uint64n(bound) < bound
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	s := New(141)
	for i := 0; i < 100000; i++ {
		if s.Float64Open() == 0 {
			t.Fatal("Float64Open returned 0")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Exp(1)
	}
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Normal(0, 1)
	}
}

func TestReseedMatchesNewWithStream(t *testing.T) {
	fresh := NewWithStream(42, 7)
	var reused Stream
	// Dirty the stream thoroughly (including the cached normal) before
	// reseeding: Reseed must erase all of it.
	reused.Reseed(999, 3)
	reused.Normal(0, 1)
	reused.Uint64()
	reused.Reseed(42, 7)
	for i := 0; i < 1000; i++ {
		if a, b := fresh.Uint64(), reused.Uint64(); a != b {
			t.Fatalf("draw %d: Reseed stream diverged: %d vs %d", i, a, b)
		}
	}
	// Normal caching must also be reset identically.
	f2, r2 := NewWithStream(5, 5), &reused
	r2.Reseed(5, 5)
	for i := 0; i < 100; i++ {
		if a, b := f2.Normal(1, 2), r2.Normal(1, 2); a != b {
			t.Fatalf("normal draw %d diverged: %g vs %g", i, a, b)
		}
	}
}

func TestReseedDoesNotAllocate(t *testing.T) {
	slab := make([]Stream, 16)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range slab {
			slab[i].Reseed(1, uint64(i))
		}
	})
	if allocs != 0 {
		t.Errorf("Reseed allocates %.1f objects per 16-stream slab, want 0", allocs)
	}
}

// mulWideSchoolbook is the 128-bit product from four 32-bit partial
// products, the form mulWide used before bits.Mul64: the oracle of
// TestMulWideMatchesSchoolbook.
func mulWideSchoolbook(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	w0 := t & mask
	k := t >> 32
	t = aHi*bLo + k
	w1 := t & mask
	w2 := t >> 32
	t = aLo*bHi + w1
	k = t >> 32
	hi = aHi*bHi + w2 + k
	lo = (t << 32) | w0
	return hi, lo
}

// TestMulWideMatchesSchoolbook: the widening multiply gives the
// schoolbook product's bits on every pair of edge values and on random
// pairs.
func TestMulWideMatchesSchoolbook(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, ^uint64(0) - 1, ^uint64(0),
		pcgMulHi, pcgMulLo}
	check := func(a, b uint64) {
		gh, gl := mulWide(a, b)
		wh, wl := mulWideSchoolbook(a, b)
		if gh != wh || gl != wl {
			t.Fatalf("mulWide(%#x, %#x) = %#x:%#x, schoolbook %#x:%#x", a, b, gh, gl, wh, wl)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	g := SplitMix64{State: 23}
	for i := 0; i < 100000; i++ {
		a, b := g.Next(), g.Next()
		check(a, b)
		check(a>>(b%64), b) // short operands too
	}
}

// TestStreamGolden pins the first outputs of fresh streams and of
// Uint64n, captured from the schoolbook multiply: a change to the
// generator's arithmetic that moves any bit fails here.
func TestStreamGolden(t *testing.T) {
	cases := []struct {
		seed, stream uint64
		want         [4]uint64
	}{
		{0, 0, [4]uint64{0x76cc097a2d64776, 0x4a34486a35c827af, 0x44f28718e0c87a3c, 0x4f3b7527c845bf27}},
		{1, 0, [4]uint64{0x2b6229e73f95a2ea, 0x8c6aae9ac795eba4, 0xd0842638d84b9bdc, 0x5a48d156487553c5}},
		{2004, 0, [4]uint64{0xf45aa4dd28e75359, 0xd852ed099704d9e0, 0x6f384376a39e6350, 0x816eee1694ee5980}},
		{42, 7, [4]uint64{0xd8ef3c4cc7a5bcaf, 0x3be80eee495334d0, 0xf0341757fe6cccbb, 0xfddc3fb08e19821f}},
		{1, 1000, [4]uint64{0x7840427ae1d3c641, 0xd281ca3a82fe7e4d, 0x7160180c452d6adb, 0x932a3dd9e3144e7e}},
		{^uint64(0), ^uint64(0), [4]uint64{0xf51d826d20132ca0, 0x8ac74c4f6d6935ed, 0xbd2e865964b656a5, 0xa6b17555761f95b9}},
	}
	for _, c := range cases {
		s := NewWithStream(c.seed, c.stream)
		for i, w := range c.want {
			if got := s.Uint64(); got != w {
				t.Errorf("NewWithStream(%d, %d) draw %d = %#x, want %#x", c.seed, c.stream, i, got, w)
			}
		}
	}
	if got := New(2004).Uint64(); got != 0xf45aa4dd28e75359 {
		t.Errorf("New(2004) first draw = %#x", got)
	}
	s := New(9)
	for _, c := range []struct{ n, want uint64 }{
		{3, 1}, {10, 5}, {1000003, 433487}, {1<<63 + 1, 1895267946402424054}, {^uint64(0), 5890389376949784400},
	} {
		if got := s.Uint64n(c.n); got != c.want {
			t.Errorf("Uint64n(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestGeometricTinyP: below p ≈ 1.1e-16, 1-p rounds to 1, and the
// logarithmic inversion used to divide by log(1) = 0 and convert -Inf to
// an int. The variate must stay non-negative and saturate at MaxInt,
// and p just above that edge must keep its draws.
func TestGeometricTinyP(t *testing.T) {
	s := New(77)
	for _, p := range []float64{1e-20, 1e-300, math.SmallestNonzeroFloat64, 5e-17} {
		for i := 0; i < 1000; i++ {
			if g := s.Geometric(p); g < 0 {
				t.Fatalf("Geometric(%g) = %d", p, g)
			}
		}
	}
	if g := New(1).Geometric(1e-300); g != math.MaxInt {
		t.Errorf("Geometric(1e-300) = %d, want MaxInt (saturated)", g)
	}
	// Where Log(1-p) is not zero, the draw is the plain inversion.
	for _, p := range []float64{1e-15, 1e-9, 0.05} {
		a, b := New(3), New(3)
		want := int(math.Floor(math.Log(a.Float64Open()) / math.Log(1-p)))
		if got := b.Geometric(p); got != want {
			t.Errorf("Geometric(%g) = %d, want %d", p, got, want)
		}
	}
}
