package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted is the q-quantile (0..1) of an ascending sample by linear
// interpolation between closest ranks. An empty sample yields 0.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s[n-1]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median of an unsorted sample (0 when empty).
func median(xs []float64) float64 { return quantileSorted(sorted(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	return quantileSorted(s, 0.25), quantileSorted(s, 0.5), quantileSorted(s, 0.75)
}

// tailBeyond is the number of samples that must lie beyond a reported tail
// percentile (choosing-metrics §1: "the highest percentile that has at least
// ten samples beyond it").
const tailBeyond = 10

// tailPercentile reports the latency tail of an unsorted sample: the wanted
// percentile (0..1) when at least tailBeyond samples lie beyond it, else the
// highest percentile that still has tailBeyond samples beyond it. used is
// the percentile actually reported. A sample too small to leave tailBeyond
// samples beyond its median reports the median and used = 0.5.
func tailPercentile(xs []float64, want float64) (value, used float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, want
	}
	used = want
	if limit := 1 - float64(tailBeyond)/float64(n); used > limit {
		used = limit
	}
	if used < 0.5 {
		used = 0.5
	}
	return quantileSorted(s, used), used
}

// geomean is the geometric mean of the positive entries of xs (0 when there
// are none): the average the compilers sheet asks for when ratios to a
// baseline are combined.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// rng is splitmix64: the benchmark's only source of randomness, so one seed
// always yields the same corpus, request order and mode draws.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// intn returns a value in [0, n); n must be positive.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// pick returns lo + a value in [0, hi-lo].
func (r *rng) pick(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// perm returns a permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s
// by inverting the cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

// rank maps a uniform draw u in [0, 1) to a rank.
func (z *zipf) rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}
