package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs the whole benchmark with -smoke (0.5 s windows, small
// corpora) and checks the shape of what it reports: every workload on both
// passes, every metric named with its unit, sample counts stated, and no
// failed operation.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "5", "-scratch", dir, "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	check := func(pass string, results []*result, defs []metricDef) {
		if len(results) != len(allWorkloads) {
			t.Fatalf("%s pass has %d workloads, want %d", pass, len(results), len(allWorkloads))
		}
		for i, r := range results {
			if r.Workload != allWorkloads[i].name {
				t.Errorf("%s pass, position %d: workload %q, want %q", pass, i, r.Workload, allWorkloads[i].name)
			}
			if r.Attempted < 1 || r.Samples != r.Attempted {
				t.Errorf("%s %s: attempted %d, samples %d", pass, r.Workload, r.Attempted, r.Samples)
			}
			if r.Failed != 0 || r.FailedShare != 0 {
				t.Errorf("%s %s: %d failed operations, failed_share %v", pass, r.Workload, r.Failed, r.FailedShare)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s %s: %d metrics, want %d", pass, r.Workload, len(r.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := r.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s %s: metric %s reported as %+v (present %v), want unit %q", pass, r.Workload, m.Name, v, ok, m.Unit)
				}
				if pass == "measured" && v.Value <= 0 {
					t.Errorf("%s %s: end-to-end metric %s = %v, must be positive", pass, r.Workload, m.Name, v.Value)
				}
				if !strings.Contains(stdout.String(), m.Name) {
					t.Errorf("metric %s is not printed by name", m.Name)
				}
			}
			if _, ok := rep.TraceOverhead[r.Workload]; !ok {
				t.Errorf("no trace_overhead for %s", r.Workload)
			}
		}
	}
	check("measured", rep.Measured, endToEnd)
	check("traced", rep.Traced, perLayer)

	// Each workload exercises the layer it was chosen for.
	traced := map[string]map[string]metricValue{}
	for _, r := range rep.Traced {
		traced[r.Workload] = r.Metrics
	}
	for _, tc := range []struct {
		workload, metric string
		min, max         float64
	}{
		{"engine.dense", "domore.iterations_per_op", 1, 1e12},
		{"engine.dense", "speccross.tasks_per_op", 0, 0},
		{"engine.sparse", "speccross.tasks_per_op", 1, 1e12},
		{"engine.sparse", "speccross.misspeculations_per_op", 0.5, 0.5},
		{"engine.sparse", "domore.iterations_per_op", 0, 0},
		{"engine.phased", "adaptive.windows_per_op", 1, 1e12},
		{"compiled.regions", "core.profile_ms", 1e-9, 1e12},
		{"daemon.hot-zipf", "daemon.hot_share", 0.99, 1},
		{"daemon.cold-churn", "daemon.hot_share", 0, 0},
		{"daemon.cold-churn", "plancache.puts_per_op", 0.5, 1},
	} {
		v := traced[tc.workload][tc.metric].Value
		if v < tc.min || v > tc.max {
			t.Errorf("%s: %s = %v, want within [%v, %v]", tc.workload, tc.metric, v, tc.min, tc.max)
		}
	}

	// The report compares clean against itself.
	var cmp bytes.Buffer
	if code := run([]string{"-compare", out, out}, &cmp, &stderr); code != 0 {
		t.Errorf("-compare of a report with itself: exit code %d\n%s", code, cmp.String())
	}
	if strings.Contains(cmp.String(), "regressed") || !strings.Contains(cmp.String(), "ok") {
		t.Errorf("-compare of a report with itself:\n%s", cmp.String())
	}
}

// TestDriverLine checks the line the driver reads: the last line of
// standard output is one JSON object with exactly the four keys, and the
// metrics are the end-to-end ones with -trace 0 and the per-layer ones with
// -trace 1.
func TestDriverLine(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "-workload", "engine.dense", "-seed", "2", "-seconds", "0.3", "-trace", tc.trace, "-scratch", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit code %d\n%s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if len(line) != 4 {
			t.Errorf("result line has %d keys, want correct, attempted, failed, metrics", len(line))
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.defs) {
			t.Errorf("-trace %s: %d metrics, want %d", tc.trace, len(metrics), len(tc.defs))
		}
		for _, m := range tc.defs {
			if _, ok := metrics[m.Name]; !ok {
				t.Errorf("-trace %s: metric %s missing", tc.trace, m.Name)
			}
		}
		if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
			t.Errorf("correct %s, failed %s", line["correct"], line["failed"])
		}
	}
}

// TestContractFile keeps BENCHMARK.json in step with the tables here.
func TestContractFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if float64(doc.RunSeconds) != fullWindow.Seconds() {
		t.Errorf("run_seconds %d, the frozen window is %v", doc.RunSeconds, fullWindow)
	}
	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
