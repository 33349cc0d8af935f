package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// loadReports reads a comma-separated list of -o reports: one side of a
// comparison, one file per run.
func loadReports(list string) ([]*report, error) {
	var out []*report
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema != reportSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
		}
		out = append(out, &r)
	}
	return out, nil
}

// side collects one side's values of one (metric, workload) pair, and its
// failed operations.
func side(reports []*report, workload, metric string) (values []float64, failed int) {
	for _, r := range reports {
		for _, m := range r.Measured {
			if m.Workload == workload {
				values = append(values, m.Metrics[metric].Value)
				failed += m.Failed
			}
		}
	}
	return values, failed
}

// spread is the run-to-run spread of a side as a share of its median: the
// distance between the quartiles with four runs or more, the range with two
// or three, and 0 (unknown) with one.
func spread(xs []float64) float64 {
	switch {
	case len(xs) >= 4:
		q1, q2, q3 := quartiles(xs)
		return ratio(q3-q1, q2)
	case len(xs) >= 2:
		s := sorted(xs)
		return ratio(s[len(s)-1]-s[0], median(xs))
	}
	return 0
}

// verdict classifies one pair: regressed when B's median is worse than A's
// by more than the bound, unresolved when it is not but either side's own
// spread is wider than the bound (so "no worse" cannot be told from noise),
// ok otherwise.
func verdict(m metricDef, a, b []float64) (worse float64, word string) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return worse, "regressed"
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return worse, "unresolved"
	}
	return worse, "ok"
}

// compareReports prints one line per (end-to-end metric, workload) pair and
// returns 1 when any pair regressed or B has failed operations.
func compareReports(listA, listB string, stdout, stderr io.Writer) int {
	a, err := loadReports(listA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: compare:", err)
		return 2
	}
	b, err := loadReports(listB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: compare:", err)
		return 2
	}
	return comparePairs(stdout, a, b)
}

func comparePairs(w io.Writer, a, b []*report) int {
	code := 0
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "verdict")
	for _, wl := range allWorkloads {
		for _, m := range endToEnd {
			va, _ := side(a, wl.name, m.Name)
			vb, failed := side(b, wl.name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-12s missing on one side\n", wl.name, m.Name)
				code = 1
				continue
			}
			worse, word := verdict(m, va, vb)
			if failed > 0 {
				word = "regressed (failed operations)"
			}
			if strings.HasPrefix(word, "regressed") {
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-12s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wl.name, m.Name, median(va), median(vb), 100*worse, 100*m.Bound, word)
		}
	}
	return code
}
