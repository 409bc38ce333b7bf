package analysis

import (
	"math"
	"slices"

	"repro/internal/rng"
)

// Two-sample Cramér–von Mises test, Anderson's (1962) version — the
// significance test of §4.5. The paper rejects the null hypothesis
// (the two distance vectors share a distribution) when p < 0.01: it
// rejects for paste-site groups (p≈0.0017 UK, p≈7e-7 US) and fails to
// reject for forum groups (p≈0.27 both).
//
// The statistic follows Anderson's rank formulation:
//
//	U  = N·Σᵢ(rᵢ−i)² + M·Σⱼ(sⱼ−j)²
//	T  = U / (N·M·(N+M)) − (4·M·N − 1) / (6·(M+N))
//
// where rᵢ are the ranks of the first sample in the pooled ordering
// and sⱼ the ranks of the second. P-values come from a seeded
// permutation test (exact in distribution, stdlib-only), with the
// asymptotic ω² tail available as a cross-check.

// CvMResult reports the test.
type CvMResult struct {
	T           float64 // Anderson two-sample statistic
	P           float64 // permutation p-value
	Resamples   int
	RejectAt001 bool // p < 0.01, the paper's threshold
}

// CvMStatistic computes Anderson's two-sample T for samples x and y.
// It panics if either sample is empty.
func CvMStatistic(x, y []float64) float64 {
	return cvmStatistic(x, y, make([]cvmObs, 0, len(x)+len(y)))
}

// cvmObs is one pooled observation, tagged with its sample.
type cvmObs struct {
	v     float64
	first bool
}

// cvmStatistic computes T using pool's capacity as the pooled-sample
// scratch, so the permutation loop sorts into one reused buffer.
func cvmStatistic(x, y []float64, pool []cvmObs) float64 {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		panic("analysis: CvMStatistic requires non-empty samples")
	}
	pool = pool[:0]
	for _, v := range x {
		pool = append(pool, cvmObs{v, true})
	}
	for _, v := range y {
		pool = append(pool, cvmObs{v, false})
	}
	// Order by < alone: values that compare neither way (ties, NaNs)
	// keep their input order, so the rank sums below are stable.
	slices.SortStableFunc(pool, func(a, b cvmObs) int {
		switch {
		case a.v < b.v:
			return -1
		case b.v < a.v:
			return 1
		}
		return 0
	})

	var u float64
	xi, yj := 0, 0
	for rank1, o := range pool {
		rank := float64(rank1 + 1)
		if o.first {
			xi++
			d := rank - float64(xi)
			u += float64(n) * d * d
		} else {
			yj++
			d := rank - float64(yj)
			u += float64(m) * d * d
		}
	}
	nf, mf := float64(n), float64(m)
	t := u/(nf*mf*(nf+mf)) - (4*mf*nf-1)/(6*(mf+nf))
	return t
}

// CvMTest runs the statistic plus a permutation p-value with the given
// number of resamples (0 selects 2000). The permutation distribution
// is generated deterministically from seed.
func CvMTest(x, y []float64, resamples int, seed int64) CvMResult {
	if resamples <= 0 {
		resamples = 2000
	}
	obs := make([]cvmObs, 0, len(x)+len(y))
	t0 := cvmStatistic(x, y, obs)
	src := rng.New(seed)
	pool := make([]float64, 0, len(x)+len(y))
	pool = append(pool, x...)
	pool = append(pool, y...)
	geq := 0
	for i := 0; i < resamples; i++ {
		src.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		if cvmStatistic(pool[:len(x)], pool[len(x):], obs) >= t0 {
			geq++
		}
	}
	// Add-one smoothing keeps p strictly positive (standard for
	// permutation tests).
	p := (float64(geq) + 1) / (float64(resamples) + 1)
	return CvMResult{T: t0, P: p, Resamples: resamples, RejectAt001: p < 0.01}
}

// AsymptoticPValue approximates P(ω² > t) for the limiting
// distribution by interpolating standard quantiles. It is a
// cross-check on the permutation p-value for moderate samples.
func AsymptoticPValue(t float64) float64 {
	// Standard quantiles of the limiting ω² distribution:
	// P(ω² <= x) = q.
	table := []struct{ x, q float64 }{
		{0.02480, 0.01}, {0.02878, 0.025}, {0.03254, 0.05}, {0.03746, 0.10},
		{0.04435, 0.20}, {0.05779, 0.40}, {0.06557, 0.50}, {0.07493, 0.60},
		{0.08679, 0.70}, {0.09876, 0.775}, {0.11888, 0.85}, {0.14885, 0.925},
		{0.17473, 0.95}, {0.24124, 0.99}, {0.27332, 0.995}, {0.34730, 0.999},
	}
	if t <= table[0].x {
		return 1 - table[0].q
	}
	last := table[len(table)-1]
	if t >= last.x {
		// Exponential tail extrapolation beyond the last quantile.
		return (1 - last.q) * math.Exp(-(t-last.x)/0.08)
	}
	for i := 1; i < len(table); i++ {
		if t <= table[i].x {
			x0, q0 := table[i-1].x, table[i-1].q
			x1, q1 := table[i].x, table[i].q
			frac := (t - x0) / (x1 - x0)
			q := q0 + frac*(q1-q0)
			return 1 - q
		}
	}
	return 0
}
