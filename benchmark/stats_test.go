package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		name       string
		xs         []float64
		q1, q2, q3 float64
	}{
		{"empty", nil, 0, 0, 0},
		{"one", []float64{7}, 7, 7, 7},
		{"two", []float64{4, 2}, 2.5, 3, 3.5},
		{"odd", []float64{5, 1, 3}, 2, 3, 4},
		{"all equal", []float64{2, 2, 2, 2, 2, 2}, 2, 2, 2},
		{"unsorted nine", []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}, 3, 5, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("%s: quartiles = %v %v %v, want %v %v %v", tc.name, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); !near(m, tc.q2) {
			t.Errorf("%s: median = %v, want %v", tc.name, m, tc.q2)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		name        string
		xs          []float64
		want        float64
		value, used float64
	}{
		{"empty", nil, 0.99, 0, 0.99},
		// Fewer than ten samples: nothing can lie ten beyond, so the median.
		{"n below ten", seq(5), 0.99, 3, 0.5},
		{"n twenty", seq(20), 0.99, 10.5, 0.5},
		// 100 samples: ten beyond leaves p90.
		{"n hundred", seq(100), 0.99, 1 + 0.9*99, 0.9},
		// 1000 samples: exactly ten beyond p99.
		{"n thousand", seq(1000), 0.99, 1 + 0.99*999, 0.99},
		{"n five thousand", seq(5000), 0.99, 1 + 0.99*4999, 0.99},
		{"lower want is kept", seq(1000), 0.9, 1 + 0.9*999, 0.9},
		{"all equal", []float64{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, 0.99, 3, 1 - 10.0/30},
	} {
		value, used := tailPercentile(tc.xs, tc.want)
		if !near(value, tc.value) || !near(used, tc.used) {
			t.Errorf("%s: tailPercentile = %v at p%v, want %v at p%v", tc.name, value, used, tc.value, tc.used)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"one", []float64{5}, 5},
		{"pair", []float64{2, 8}, 4},
		{"all equal", []float64{3, 3, 3}, 3},
		{"zeros are skipped", []float64{0, 4, 9}, 6},
	} {
		if got := geomean(tc.xs); !near(got, tc.want) {
			t.Errorf("%s: geomean = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestZipf(t *testing.T) {
	z := newZipf(64, 1.1)
	if got := z.rank(0); got != 0 {
		t.Errorf("rank(0) = %d, want 0", got)
	}
	if got := z.rank(0.999999999); got != 63 {
		t.Errorf("rank(~1) = %d, want 63", got)
	}
	// Sampled frequencies follow 1/(rank+1)^s.
	r := newRng(42)
	const n = 200000
	counts := make([]int, 64)
	for i := 0; i < n; i++ {
		counts[z.rank(r.float())]++
	}
	norm := 0.0
	for i := 0; i < 64; i++ {
		norm += 1 / math.Pow(float64(i+1), 1.1)
	}
	for _, rank := range []int{0, 1, 7, 63} {
		want := 1 / math.Pow(float64(rank+1), 1.1) / norm
		got := float64(counts[rank]) / n
		if math.Abs(got-want) > 0.15*want+0.0005 {
			t.Errorf("rank %d: share %.4f, want %.4f", rank, got, want)
		}
	}
	// One rank only.
	if got := newZipf(1, 1.1).rank(0.7); got != 0 {
		t.Errorf("single-rank zipf: rank = %d", got)
	}
}

func TestRngDeterministic(t *testing.T) {
	a, b, c := newRng(9), newRng(9), newRng(10)
	same, differ := true, false
	for i := 0; i < 100; i++ {
		x, y, z := a.next(), b.next(), c.next()
		same = same && x == y
		differ = differ || x != z
	}
	if !same || !differ {
		t.Errorf("same seed equal: %v, different seed differs: %v", same, differ)
	}
	p := newRng(3).perm(50)
	seen := map[int]bool{}
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Errorf("perm(50) has %d distinct values", len(seen))
	}
}

func TestVerdict(t *testing.T) {
	ops := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", ops, []float64{100}, []float64{100}, "ok"},
		{"higher-better drops 5%", ops, []float64{100}, []float64{95}, "ok"},
		{"higher-better drops 15%", ops, []float64{100}, []float64{85}, "regressed"},
		{"higher-better rises", ops, []float64{100}, []float64{150}, "ok"},
		{"lower-better rises 15%", lat, []float64{10}, []float64{11.5}, "regressed"},
		{"lower-better falls", lat, []float64{10}, []float64{5}, "ok"},
		{"spread wider than bound", lat, []float64{10, 12, 9, 13, 10}, []float64{10.5, 10.4, 10.6, 10.5}, "unresolved"},
		{"tight runs", lat, []float64{10, 10.1, 9.9, 10}, []float64{10.2, 10.3, 10.1, 10.2}, "ok"},
	} {
		if _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
