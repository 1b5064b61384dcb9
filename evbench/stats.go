package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Percentiles are integers in basis points (p50 = 5000, p99.9 = 9990) so
// that ranks come from integer arithmetic: 0.99*100 is not exactly 99 in
// floating point, and a nearest-rank quantile must not depend on that.
const (
	p50  = 5000
	p90  = 9000
	p99  = 9900
	p999 = 9990
)

// rank is the 1-based nearest rank of percentile p (basis points) among n
// samples: the smallest r with r/n >= p/10000.
func rank(p, n int) int {
	r := (p*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the exact nearest-rank percentile p of xs. xs must be
// sorted and non-empty.
func quantile(sorted []float64, p int) float64 {
	return sorted[rank(p, len(sorted))-1]
}

// beyond is the number of samples strictly above the nearest-rank
// percentile p of n samples.
func beyond(p, n int) int { return n - rank(p, n) }

// tailPercentile picks the highest of p99.9, p99, p90 and p50 that has at
// least ten samples beyond it, so a reported tail always rests on ten
// observations. It returns 0 when not even the median qualifies.
func tailPercentile(n int) int {
	for _, p := range []int{p999, p99, p90, p50} {
		if beyond(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// pctName renders a basis-point percentile as "p99" or "p99.9".
func pctName(p int) string {
	if p%100 == 0 {
		return fmt.Sprintf("p%d", p/100)
	}
	return fmt.Sprintf("p%g", float64(p)/100)
}

// sample is a set of raw observations (milliseconds for latencies).
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// q is the exact nearest-rank percentile p of s, or 0 for an empty sample.
func (s sample) q(p int) float64 {
	if len(s) == 0 {
		return 0
	}
	return quantile(s.sorted(), p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finite maps NaN and infinities to 0 so results always encode as JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
