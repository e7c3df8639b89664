package rng

import "math"

// Binomial returns the number of successes in n Bernoulli(p) trials. For
// n·p ≤ 30 or n ≤ 64 it inverts the CDF exactly (the classic BINV
// algorithm: one uniform draw and a walk of ~n·p terms, each a
// multiplication and a division, no logarithms). Larger n is halved until
// the halves reach that regime, and only above n·p·(1−p) > 1000 does it
// use a normal approximation with continuity correction, whose error is far
// below the simulation noise floor. Hot loops that draw many variates for
// one p should draw through a BinomialTable, which returns the same values
// from the same stream without the walk.
func (s *Stream) Binomial(n int, p float64) int { return s.binomial(n, p, nil) }

// binomial is Binomial's control flow; t, when non-nil, is a table for p
// that inverts the CDF at the leaves in place of binvWalk.
func (s *Stream) binomial(n int, p float64, t *BinomialTable) int {
	switch {
	case n < 0:
		panic("rng: Binomial with n < 0")
	case p <= 0 || n == 0:
		return 0
	case p >= 1:
		return n
	}
	if p > 0.5 {
		return n - s.binomial(n, 1-p, t)
	}
	np := float64(n) * p
	switch {
	case np <= 30 || n <= 64:
		u := s.Float64Open()
		if t != nil {
			return t.table(n, p).invert(u, n, p)
		}
		return binvWalk(u, n, p)
	default:
		v := float64(n) * p * (1 - p)
		if v <= 1000 {
			// Split to keep each half in an exactly-sampled regime.
			h := n / 2
			return s.binomial(h, p, t) + s.binomial(n-h, p, t)
		}
		x := math.Round(s.Normal(np, math.Sqrt(v)))
		if x < 0 {
			x = 0
		}
		if x > float64(n) {
			x = float64(n)
		}
		return int(x)
	}
}

// binvWalk inverts the Binomial(n, p) CDF at u by walking it with the
// recursive ratio P(k+1)/P(k) = (n−k)/(k+1) · p/q, subtracting each term
// from u until what is left of u fits in the next one. Requires
// 0 < p <= 0.5 and small n·p (so that P(0) = qⁿ ≳ e⁻⁶⁰ stays comfortably
// normal and the expected walk length ≈ n·p stays short). It defines the
// value every binomial leaf returns: the table path returns the same k or
// falls back to it.
func binvWalk(u float64, n int, p float64) int {
	q := 1 - p
	ratio := p / q
	r := powN(q, n)
	k := 0
	for u > r {
		u -= r
		k++
		if k > n {
			// Accumulated rounding left a residue beyond the support.
			return n
		}
		r *= ratio * float64(n-k+1) / float64(k)
	}
	return k
}

// powN computes qⁿ by binary exponentiation — plain multiplications, so
// the result (and therefore every stream's draw sequence) is identical on
// every platform, unlike math.Pow's libm-dependent rounding.
func powN(q float64, n int) float64 {
	r := 1.0
	for n > 0 {
		if n&1 == 1 {
			r *= q
		}
		q *= q
		n >>= 1
	}
	return r
}

const (
	// tableSlots is how many per-n tables a BinomialTable keeps; the
	// table for n lives in slot n mod tableSlots, so any run of up to
	// tableSlots consecutive n values (a chunk's load/store count, the
	// halves of a split) shares one without rebuilding.
	tableSlots = 64
	// tableMaxLen caps a table's entries, so its guide fits a uint8 and a
	// BinomialTable holds at most tableSlots·tableMaxLen sums whatever
	// n and p it is asked for. A u past the last entry walks. Binomial's
	// leaves (n·p ≤ 32) stop at well under 100 entries, where the sums
	// stop growing.
	tableMaxLen = 128
)

// A BinomialTable draws Binomial(n, p) variates for one p: Sample(s, n)
// returns exactly what s.Binomial(n, p) would, consuming the same draws,
// so the stream is in the same state afterwards. Only the leaves of
// Binomial's control flow differ: instead of walking the CDF term by term
// (binvWalk), a leaf looks u up in a guide table (Chen & Asau, 1974; see
// Devroye, Non-Uniform Random Variate Generation, 1986, §III.2) built once
// for that n. The zero value is a table for p = 0; Reset points it at
// another p. A BinomialTable is not safe for concurrent use; its memory is
// bounded by tableSlots·tableMaxLen sums and is reused across Resets.
type BinomialTable struct {
	p     float64
	slots [tableSlots]binTable
}

// Reset points t at p. The tables it holds depend only on (n, p), so they
// are kept when p is unchanged.
func (t *BinomialTable) Reset(p float64) {
	if math.Float64bits(p) == math.Float64bits(t.p) {
		return
	}
	t.p = p
	for i := range t.slots {
		t.slots[i].key = 0
	}
}

// Sample returns a Binomial(n, p) variate from s for the table's p.
func (t *BinomialTable) Sample(s *Stream, n int) int { return s.binomial(n, t.p, t) }

// table returns the slot holding n's table at leaf probability p (t.p, or
// 1 − t.p under the flip; binomial passes the same one every time), built
// on first use.
func (t *BinomialTable) table(n int, p float64) *binTable {
	tb := &t.slots[n%tableSlots]
	if tb.key != n+1 {
		tb.build(n, p, tableMaxLen)
	}
	return tb
}

// binTable is the cumulative Binomial(n, p) pmf for one n, with its guide.
//
// Why a lookup returns exactly binvWalk's k. Both compute the same terms
// r₀ = powN(q, n), r_k = r_{k−1}·(ratio·(n−k+1)/k), so they differ only
// in how they sum them. Let S_k be the exact sum r₀ + … + r_k and
// ε = 2⁻⁵³.
//   - The table adds left to right: cum[k] = fl(cum[k−1] + r_k). Every sum
//     is below 2, so each addition rounds by at most ε, and
//     |cum[k] − S_k| ≤ k·ε.
//   - The walk subtracts: it stops at the first k with u_k ≤ r_k, where
//     u₀ = u and u_{j+1} = fl(u_j − r_j) is taken only when u_j > r_j, so
//     each difference lies in [0, 1) and rounds by at most ε/2:
//     |u_k − (u − S_{k−1})| ≤ k·ε/2.
//
// So the walk's test at step j, u_j − r_j ≤ 0, has the sign of u − S_j
// whenever |u − S_j| > j·ε/2, and |u − cum[j]| > 1.5·j·ε makes sure of
// that. A lookup finds the first k with cum[k] ≥ u and accepts it only if
// cum[k] − u > margin and u − cum[k−1] > margin, margin = 4·len(cum)·ε
// (over twice what is needed, which also covers the rounding of those two
// differences). Then u > cum[j] + margin for every j < k (cum never
// decreases), so the walk passes them, and u < cum[k] − margin, so it
// stops at k. k = 0 needs no margin: the walk returns 0 exactly when
// u ≤ r₀ = cum[0]. Any other u — within margin of an edge, or past the
// last entry — is handed to binvWalk itself.
type binTable struct {
	key    int       // n+1 for the n the table is for; 0 when empty
	margin float64   // 4·len(cum)·2⁻⁵³
	cum    []float64 // cum[k] = fl(cum[k−1] + r_k), cum[0] = r₀
	guide  []uint8   // guide[g]: the first k with cum[k] ≥ g/len(guide), or len(cum)
}

// build fills tb for Binomial(n, p), 0 < p <= 0.5, with at most maxLen
// entries, reusing tb's slices. Any prefix of the sums is a valid table;
// it stops early once the sums reach 1 (no u < 1 looks further) or, past
// the mode, stop growing (later terms are no larger, so they never would).
func (tb *binTable) build(n int, p float64, maxLen int) {
	q := 1 - p
	ratio := p / q
	r := powN(q, n)
	cum := append(tb.cum[:0], r)
	c := r
	for k := 1; k <= n && len(cum) < maxLen && c < 1; k++ {
		f := ratio * float64(n-k+1) / float64(k)
		r *= f
		next := c + r
		if next == c && f <= 1 {
			break
		}
		c = next
		cum = append(cum, c)
	}
	tb.key, tb.cum = n+1, cum

	// The guide has a power-of-two length, so g/G and u·G are exact.
	g := 1
	for g < len(cum) {
		g <<= 1
	}
	guide := tb.guide[:0]
	k := 0
	for i := 0; i < g; i++ {
		edge := float64(i) / float64(g)
		for k < len(cum) && cum[k] < edge {
			k++
		}
		guide = append(guide, uint8(k))
	}
	tb.guide = guide
	tb.margin = 4 * float64(len(cum)) * 0x1p-53
}

// invert returns binvWalk(u, n, p) for the n and p tb was built for: from
// the table when u is clear of every edge, else from the walk.
func (tb *binTable) invert(u float64, n int, p float64) int {
	cum := tb.cum
	g := min(int(u*float64(len(tb.guide))), len(tb.guide)-1)
	k := int(tb.guide[g])
	for k < len(cum) && cum[k] < u {
		k++
	}
	if k < len(cum) && (k == 0 || cum[k]-u > tb.margin && u-cum[k-1] > tb.margin) {
		return k
	}
	return binvWalk(u, n, p)
}
