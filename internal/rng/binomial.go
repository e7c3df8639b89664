package rng

import "math"

// Binomial returns the number of successes in n Bernoulli(p) trials. Every
// regime is exact. For n·p ≤ 30 or n ≤ 64 it inverts the CDF (the classic
// BINV algorithm: one uniform draw and a walk of ~n·p terms, each a
// multiplication and a division, no logarithms). Larger n is halved until
// the halves reach that regime, up to n·p·(1−p) = 1000; above it one
// draw takes Kachitvichyanukul and Schmeiser's BTPE rejection sampler
// (btpe). Hot loops that draw many variates for one p should draw through
// a BinomialTable, which returns the same values from the same stream
// without the walk.
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
		return s.btpe(n, p)
	}
}

// btpe draws Binomial(n, p), 0 < p <= 0.5, by BTPE (Kachitvichyanukul &
// Schmeiser, "Binomial random variate generation", CACM 31(2), 1988): two
// uniforms propose y from a hat of a triangle, two parallelograms and two
// exponential tails over the pmf, and y is accepted against f(y)/f(M),
// M the mode, evaluated by the pmf's recursion when y is near M and
// otherwise squeezed between bounds on its logarithm and settled by
// Stirling's series (lnPMFRatio). It is exact for any n; the hat needs
// n·p ≳ 10, and Binomial calls it only above n·p·(1−p) > 1000. The loops run on integer counts and y is converted only
// once it is known to lie in [0, n], so n near math.MaxInt, where float64
// no longer resolves n, still terminates and stays in range.
func (s *Stream) btpe(n int, p float64) int {
	nf := float64(n)
	q := 1 - p
	npq := nf * p * q
	fm := nf*p + p
	m := math.Floor(fm)
	p1 := math.Floor(2.195*math.Sqrt(npq)-4.6*q) + 0.5
	xm := m + 0.5
	xl, xr := xm-p1, xm+p1
	c := 0.134 + 20.5/(15.3+m)
	a := (fm - xl) / (fm - xl*p)
	laml := a * (1 + a/2)
	a = (xr - fm) / (xr * q)
	lamr := a * (1 + a/2)
	p2 := p1 * (1 + 2*c)
	p3 := p2 + c/laml
	p4 := p3 + c/lamr
	for {
		u := s.Float64() * p4
		v := s.Float64()
		var y float64
		switch {
		case u <= p1:
			// The triangle lies under the pmf: accept at once.
			return clampBinomial(math.Floor(xm-p1*v+u), n)
		case u <= p2:
			// The parallelograms.
			x := xl + (u-p1)/c
			v = v*c + 1 - math.Abs(x-xm)/p1
			if v > 1 {
				continue
			}
			y = math.Floor(x)
		case u <= p3:
			// The left exponential tail.
			y = math.Floor(xl + math.Log(v)/laml)
			if y < 0 || v == 0 {
				continue
			}
			v *= (u - p2) * laml
		default:
			// The right exponential tail.
			y = math.Floor(xr - math.Log(v)/lamr)
			if y > nf || v == 0 {
				continue
			}
			v *= (u - p3) * lamr
		}
		if y < 0 || y > nf {
			continue
		}
		k := math.Abs(y - m)
		if k <= 20 || k >= npq/2-1 {
			// f(y)/f(M) by the recursion f(i)/f(i−1) = a/i − r.
			r := p / q
			a := r * (nf + 1)
			f := 1.0
			steps := int(k)
			if y > m {
				for j := 1; j <= steps; j++ {
					f *= a/(m+float64(j)) - r
				}
			} else {
				for j := 0; j < steps; j++ {
					f /= a/(m-float64(j)) - r
				}
			}
			if v <= f {
				return clampBinomial(y, n)
			}
			continue
		}
		// Squeeze ln v between bounds on ln f(y)/f(M).
		rho := (k / npq) * ((k*(k/3+0.625)+1.0/6)/npq + 0.5)
		t := -k * k / (2 * npq)
		lv := math.Log(v)
		if lv < t-rho {
			return clampBinomial(y, n)
		}
		if lv > t+rho {
			continue
		}
		if lv <= lnPMFRatio(y, m, nf, p) {
			return clampBinomial(y, n)
		}
	}
}

// lnPMFRatio returns ln f(y)/f(m) for the Binomial(n, p) pmf f, nf =
// float64(n), by Stirling's series: ln m! + ln(n−m)! − ln y! − ln(n−y)!
// + (y−m)·ln(p/q), the linear terms cancelled.
func lnPMFRatio(y, m, nf, p float64) float64 {
	x1, f1 := y+1, m+1
	z, w := nf+1-m, nf-y+1
	return (m+0.5)*math.Log(f1/x1) + (nf-m+0.5)*math.Log(z/w) + (y-m)*math.Log(w*p/(x1*(1-p))) +
		stirlingTail(f1) + stirlingTail(z) - stirlingTail(x1) - stirlingTail(w)
}

// stirlingTail returns the tail of Stirling's series for ln Γ(x),
// 1/(12x) − 1/(360x³) + 1/(1260x⁵) − 1/(1680x⁷) + 1/(1188x⁹).
func stirlingTail(x float64) float64 {
	x2 := x * x
	return (13860 - (462-(132-(99-140/x2)/x2)/x2)/x2) / x / 166320
}

// clampBinomial converts an accepted y ∈ [0, float64(n)] to an int in
// [0, n]: float64(n) may round n up past math.MaxInt.
func clampBinomial(y float64, n int) int {
	if y >= float64(n) {
		return n
	}
	return max(int(y), 0)
}

// binvWalk inverts the Binomial(n, p) CDF at u by walking it with the
// recursive ratio P(k+1)/P(k) = (n−k)/(k+1) · p/q, subtracting each term
// from u until what is left of u fits in the next one. Requires
// 0 < p <= 0.5 and small n·p (so that P(0) = qⁿ ≳ e⁻⁶⁰ stays comfortably
// normal and the expected walk length ≈ n·p stays short). It defines the
// value every binomial leaf returns: the table path returns the same k or
// falls back to it.
//
// Rounding can leave the terms summing to less than u: 1 − p is rounded,
// so qⁿ is off by a factor that grows with n. Then the walk runs past the
// support and returns n. A term that has underflowed to 0 stays 0, so the
// walk returns n at once there, which is what walking on would return,
// instead of taking n steps.
func binvWalk(u float64, n int, p float64) int {
	q := 1 - p
	ratio := p / q
	r := powN(q, n)
	k := 0
	for u > r {
		u -= r
		k++
		if k > n || r == 0 {
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
