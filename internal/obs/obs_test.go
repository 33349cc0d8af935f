package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/workloads/cg"
)

// promSample matches one metric sample line; promMeta one comment line.
var (
	promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (NaN|[+-]?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)$`)
	promMeta   = regexp.MustCompile(`^# (TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)|HELP [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?)$`)
)

// parsePrometheus validates the text exposition format line by line and
// returns the scalar samples (name → value, label-free lines only).
func parsePrometheus(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if m := promMeta.FindStringSubmatch(line); m != nil {
			if strings.HasPrefix(m[1], "TYPE ") {
				typed[strings.Fields(m[1])[1]] = true
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("invalid exposition line %q", line)
			continue
		}
		if m[2] == "" {
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Errorf("unparseable value in %q: %v", line, err)
				continue
			}
			samples[m[1]] = v
		}
	}
	if len(typed) == 0 {
		t.Error("no # TYPE lines in exposition output")
	}
	return samples
}

// TestMetricsMatchEngineStats scrapes /metrics after a completed DOMORE
// run and asserts the Prometheus counters agree with the engine's own
// Stats — the same exactness contract the workload suites assert for the
// raw Summary, held through the HTTP rendering path.
func TestMetricsMatchEngineStats(t *testing.T) {
	rec := trace.NewRecorder()
	w := cg.New(1)
	stats := domore.RunParallel(w, domore.Options{Workers: 4, Trace: rec})
	if stats.Iterations == 0 {
		t.Fatal("no iterations scheduled")
	}

	srv := httptest.NewServer(NewMux(rec, func(g *trace.Registry) {
		g.SetGauge("serve.runs", 1)
	}))
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	samples := parsePrometheus(t, body)

	for name, want := range map[string]int64{
		"crossinv_events_schedule_total":    stats.Iterations,
		"crossinv_events_dispatch_total":    stats.Dispatches,
		"crossinv_events_sync_cond_total":   stats.SyncConditions,
		"crossinv_events_stall_begin_total": stats.Stalls,
	} {
		got, ok := samples[name]
		if !ok {
			t.Errorf("missing metric %s", name)
			continue
		}
		if int64(got) != want {
			t.Errorf("%s = %v, engine Stats say %d", name, got, want)
		}
	}
	if _, ok := samples["crossinv_serve_runs"]; !ok {
		t.Error("decorate gauge crossinv_serve_runs not rendered")
	}
	if _, ok := samples["crossinv_process_goroutines"]; !ok {
		t.Error("missing crossinv_process_goroutines gauge")
	}
	// The run above built one runtime and left it in the engine pool; a
	// second run is served from there, and the scrape says so.
	created, reused := samples["crossinv_engine_runtimes_created_total"], samples["crossinv_engine_runtimes_reused_total"]
	if created < 1 || samples["crossinv_engine_runtimes_idle"] < 1 {
		t.Errorf("after one engine run: runtimes created %v, idle %v; want at least 1 each", created, samples["crossinv_engine_runtimes_idle"])
	}
	domore.RunParallel(cg.New(1), domore.Options{Workers: 4})
	samples = parsePrometheus(t, get(t, srv.URL+"/metrics"))
	if c, r := samples["crossinv_engine_runtimes_created_total"], samples["crossinv_engine_runtimes_reused_total"]; c != created || r != reused+1 {
		t.Errorf("a second engine run: runtimes created %v → %v, reused %v → %v; want it served from the pool", created, c, reused, r)
	}

	var sum Summary
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/summary")), &sum); err != nil {
		t.Fatalf("/summary is not valid JSON: %v", err)
	}
	if sum.Counts["schedule"] != stats.Iterations {
		t.Errorf("/summary schedule count %d != Stats.Iterations %d", sum.Counts["schedule"], stats.Iterations)
	}
	if sum.Lanes == 0 || sum.Events == 0 {
		t.Errorf("/summary lanes/events = %d/%d, want non-zero", sum.Lanes, sum.Events)
	}

	if !strings.Contains(get(t, srv.URL+"/debug/pprof/"), "profile") {
		t.Error("/debug/pprof/ index does not list profiles")
	}
}

// TestScrapeDuringRun scrapes /metrics and /summary while an engine is
// emitting — the serve-while-running contract. The CI race pass runs this
// package under -race, so a reintroduced unsynchronized counter fails
// loudly here.
func TestScrapeDuringRun(t *testing.T) {
	rec := trace.NewRecorder()
	srv := httptest.NewServer(NewMux(rec, nil))
	defer srv.Close()

	done := make(chan domore.Stats, 1)
	go func() {
		w := cg.New(1)
		done <- domore.RunParallel(w, domore.Options{Workers: 4, Trace: rec})
	}()

	var scrapes int
	for {
		select {
		case stats := <-done:
			if scrapes == 0 {
				t.Log("engine finished before first scrape; counters still verified below")
			}
			// Final scrape after quiesce must be exact.
			samples := parsePrometheus(t, get(t, srv.URL+"/metrics"))
			if got := int64(samples["crossinv_events_schedule_total"]); got != stats.Iterations {
				t.Errorf("post-run schedule count %d != %d", got, stats.Iterations)
			}
			return
		default:
			parsePrometheus(t, get(t, srv.URL+"/metrics"))
			get(t, srv.URL+"/summary")
			scrapes++
		}
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
