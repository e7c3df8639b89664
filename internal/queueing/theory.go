package queueing

import (
	"fmt"
	"math"
)

// This file holds the exact steady-state results for the classical queues.
// They serve two purposes: validating the DES kernel (simulate M/M/1 and
// compare with theory — the strongest correctness check a queueing
// simulator can get) and providing fast analytic estimates in the model
// sanity checks.

// MM1 returns steady-state metrics for an M/M/1 queue with arrival rate
// lambda and service rate mu. It returns an error when the queue is
// unstable (lambda >= mu).
type MM1Result struct {
	Rho float64 // utilization λ/μ
	L   float64 // mean number in system
	Lq  float64 // mean number in queue
	W   float64 // mean time in system (sojourn)
	Wq  float64 // mean waiting time
	P0  float64 // probability of empty system
}

// MM1 evaluates the M/M/1 formulas.
func MM1(lambda, mu float64) (MM1Result, error) {
	if lambda <= 0 || mu <= 0 {
		return MM1Result{}, fmt.Errorf("queueing: MM1 with non-positive rates λ=%g μ=%g", lambda, mu)
	}
	rho := lambda / mu
	if rho >= 1 {
		return MM1Result{}, fmt.Errorf("queueing: MM1 unstable (ρ=%g)", rho)
	}
	return MM1Result{
		Rho: rho,
		L:   rho / (1 - rho),
		Lq:  rho * rho / (1 - rho),
		W:   1 / (mu - lambda),
		Wq:  rho / (mu - lambda),
		P0:  1 - rho,
	}, nil
}

// MMCResult holds M/M/c steady-state metrics.
type MMCResult struct {
	Rho     float64 // per-server utilization λ/(cμ)
	L       float64
	Lq      float64
	W       float64
	Wq      float64
	ErlangC float64 // probability an arrival must wait
}

// MMC evaluates the M/M/c formulas with c servers.
func MMC(lambda, mu float64, c int) (MMCResult, error) {
	if lambda <= 0 || mu <= 0 || c <= 0 {
		return MMCResult{}, fmt.Errorf("queueing: MMC with invalid parameters λ=%g μ=%g c=%d", lambda, mu, c)
	}
	a := lambda / mu // offered load in Erlangs
	rho := a / float64(c)
	if rho >= 1 {
		return MMCResult{}, fmt.Errorf("queueing: MMC unstable (ρ=%g)", rho)
	}
	// Erlang C via the numerically stable iterative form.
	// B(0) = 1; B(k) = a*B(k-1) / (k + a*B(k-1))  (Erlang B recursion)
	bk := 1.0
	for k := 1; k <= c; k++ {
		bk = a * bk / (float64(k) + a*bk)
	}
	erlC := bk / (1 - rho*(1-bk))
	lq := erlC * rho / (1 - rho)
	wq := lq / lambda
	w := wq + 1/mu
	return MMCResult{
		Rho:     rho,
		L:       lq + a,
		Lq:      lq,
		W:       w,
		Wq:      wq,
		ErlangC: erlC,
	}, nil
}

// MG1 evaluates the Pollaczek–Khinchine formulas for an M/G/1 queue with
// arrival rate lambda and a general service distribution with the given
// mean and variance.
type MG1Result struct {
	Rho float64
	L   float64
	Lq  float64
	W   float64
	Wq  float64
}

// MG1 evaluates the Pollaczek–Khinchine mean-value formulas.
func MG1(lambda, svcMean, svcVar float64) (MG1Result, error) {
	if lambda <= 0 || svcMean <= 0 || svcVar < 0 {
		return MG1Result{}, fmt.Errorf("queueing: MG1 with invalid parameters")
	}
	rho := lambda * svcMean
	if rho >= 1 {
		return MG1Result{}, fmt.Errorf("queueing: MG1 unstable (ρ=%g)", rho)
	}
	es2 := svcVar + svcMean*svcMean // E[S^2]
	wq := lambda * es2 / (2 * (1 - rho))
	w := wq + svcMean
	return MG1Result{
		Rho: rho,
		L:   lambda * w,
		Lq:  lambda * wq,
		W:   w,
		Wq:  wq,
	}, nil
}

// MD1 evaluates the M/D/1 queue (deterministic service) via MG1 with zero
// service variance.
func MD1(lambda, svcTime float64) (MG1Result, error) {
	return MG1(lambda, svcTime, 0)
}

// MM1PSMeanSojourn returns the mean sojourn time of M/M/1 under egalitarian
// processor sharing, which equals the FCFS value 1/(μ−λ); the conditional
// sojourn of a job of size x is x/(1−ρ).
func MM1PSMeanSojourn(lambda, mu float64) (float64, error) {
	r, err := MM1(lambda, mu)
	if err != nil {
		return 0, err
	}
	return r.W, nil
}

// Kingman returns the classical G/G/1 heavy-traffic approximation for mean
// waiting time: Wq ≈ (ρ/(1−ρ)) · ((ca² + cs²)/2) · E[S], where ca and cs
// are the coefficients of variation of interarrival and service times.
func Kingman(lambda, svcMean, ca2, cs2 float64) (float64, error) {
	if lambda <= 0 || svcMean <= 0 || ca2 < 0 || cs2 < 0 {
		return 0, fmt.Errorf("queueing: Kingman with invalid parameters")
	}
	rho := lambda * svcMean
	if rho >= 1 {
		return 0, fmt.Errorf("queueing: Kingman unstable (ρ=%g)", rho)
	}
	return rho / (1 - rho) * (ca2 + cs2) / 2 * svcMean, nil
}

// AllenCunneen extends the Kingman form to c servers using the M/M/c
// waiting time scaled by the variability factor.
func AllenCunneen(lambda, mu float64, c int, ca2, cs2 float64) (float64, error) {
	if ca2 < 0 || cs2 < 0 {
		return 0, fmt.Errorf("queueing: AllenCunneen with negative variability")
	}
	r, err := MMC(lambda, mu, c)
	if err != nil {
		return 0, err
	}
	return r.Wq * (ca2 + cs2) / 2, nil
}

// JacksonNode describes one station of an open Jackson network.
type JacksonNode struct {
	Mu      float64 // service rate
	Servers int
}

// JacksonResult holds per-node results of an open Jackson network analysis.
type JacksonResult struct {
	Lambda []float64 // effective arrival rate per node
	W      []float64 // mean sojourn per node visit
	L      []float64 // mean number at node
}

// Jackson solves an open Jackson network: external arrival rates gamma,
// routing matrix P (P[i][j] = probability a job leaving i goes to j; row
// sums <= 1, remainder exits), and per-node service. Effective rates solve
// λ = γ + λP by fixed-point iteration.
func Jackson(gamma []float64, P [][]float64, nodes []JacksonNode) (JacksonResult, error) {
	n := len(nodes)
	if len(gamma) != n || len(P) != n {
		return JacksonResult{}, fmt.Errorf("queueing: Jackson dimension mismatch")
	}
	lambda := append([]float64(nil), gamma...)
	for iter := 0; iter < 10000; iter++ {
		next := append([]float64(nil), gamma...)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[j] += lambda[i] * P[i][j]
			}
		}
		diff := 0.0
		for i := range next {
			diff += math.Abs(next[i] - lambda[i])
		}
		lambda = next
		if diff < 1e-12 {
			break
		}
	}
	res := JacksonResult{Lambda: lambda, W: make([]float64, n), L: make([]float64, n)}
	for i, node := range nodes {
		if node.Servers <= 1 {
			r, err := MM1(lambda[i], node.Mu)
			if err != nil {
				return JacksonResult{}, fmt.Errorf("node %d: %w", i, err)
			}
			res.W[i], res.L[i] = r.W, r.L
		} else {
			r, err := MMC(lambda[i], node.Mu, node.Servers)
			if err != nil {
				return JacksonResult{}, fmt.Errorf("node %d: %w", i, err)
			}
			res.W[i], res.L[i] = r.W, r.L
		}
	}
	return res, nil
}
