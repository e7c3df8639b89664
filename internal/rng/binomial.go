package rng

import "math"

// Binomial returns the number of successes in n Bernoulli(p) trials. Every
// regime is exact. For n·p ≤ 30 or n ≤ 64 it inverts the CDF (the classic
// BINV algorithm: one uniform draw and a walk of ~n·p terms, each a
// multiplication and a division, no logarithms). Larger n is halved until
// the halves reach that regime, up to n·p·(1−p) = 1000; above it one
// draw takes Kachitvichyanukul and Schmeiser's BTPE rejection sampler
// (btpe).
func (s *Stream) Binomial(n int, p float64) int {
	switch {
	case n < 0:
		panic("rng: Binomial with n < 0")
	case p <= 0 || n == 0:
		return 0
	case p >= 1:
		return n
	}
	if p > 0.5 {
		return n - s.Binomial(n, 1-p)
	}
	np := float64(n) * p
	switch {
	case np <= 30 || n <= 64:
		return binvWalk(s.Float64Open(), n, p)
	case np*(1-p) <= 1000:
		// Split to keep each half in an exactly-sampled regime.
		h := n / 2
		return s.Binomial(h, p) + s.Binomial(n-h, p)
	default:
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
// normal and the expected walk length ≈ n·p stays short).
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
