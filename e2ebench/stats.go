package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is a latency tail that rests on enough samples to mean something.
type tail struct {
	// Value is the sample at the Percentile-th percentile; N is the sample
	// count. Exactly tailBeyond samples rank beyond Value.
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	N          int     `json:"n"`
}

// tailOf picks the highest percentile that still has tailBeyond samples
// beyond it: the (n-tailBeyond)-th smallest sample, which is the
// 100·(n-tailBeyond)/n-th percentile. With tailBeyond samples or fewer no
// percentile qualifies and ok is false.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{N: n}, false
	}
	s := sorted(xs)
	return tail{Value: s[n-tailBeyond-1], Percentile: 100 * float64(n-tailBeyond) / float64(n), N: n}, true
}

// hdQuantile is the Harrell-Davis estimate of the p-quantile of xs: a mean
// of all the sorted samples, the i-th weighted by the chance that a
// Beta(p(n+1), (1-p)(n+1)) variable falls in ((i-1)/n, i/n]. The end-to-end
// latency metrics use it because a nearest-rank quantile is one sample, and
// a run's latencies fall into jobs a GC mark phase or a replan slowed and jobs
// nothing slowed; where the rank sits near the border of the two groups, the
// one sample jumps between them from seed to seed. p must lie in (0, 1).
func hdQuantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n < 2 {
		return quantile(xs, p)
	}
	s := sorted(xs)
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	density := func(x float64) float64 {
		return math.Exp((a-1)*math.Log(x) + (b-1)*math.Log1p(-x) + lab - la - lb)
	}
	// Each sample's weight is the Beta density integrated over its interval
	// by the midpoint rule, normalised by the total.
	const steps = 16
	var sum, total float64
	for i, x := range s {
		w := 0.0
		for k := 0; k < steps; k++ {
			w += density((float64(i) + (float64(k)+0.5)/steps) / float64(n))
		}
		sum += w * x
		total += w
	}
	return sum / total
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// share is num/den, or 0 for an empty denominator.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
