package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"crossinv/internal/daemon"
	"crossinv/internal/obs"
)

// runRemote is the -remote client mode: instead of compiling locally, the
// program text is POSTed to a crossinvd daemon, which compiles, plans,
// profiles, and executes it server-side — hot from its plan cache when it
// has seen the program before. Mode "all" expands to one request per
// engine, mirroring the local driver's output shape. With explain, the
// daemon's /debug/decisions journal is fetched for each adaptive
// invocation and rendered like the local audit.
//
// The daemon answers a request it has already executed and verified from
// memory. explain and misspec ask for a fresh execution instead: a served
// result has no decision journal of its own, and an injected fault must
// really run.
func runRemote(addr, src, mode string, workers, region, window, misspec int, explain bool) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	modes := []string{mode}
	if mode == "all" {
		modes = []string{"seq", "barrier", "domore", "speccross", "adaptive"}
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	for _, m := range modes {
		req := &daemon.RunRequest{
			Source: src, Mode: m, Workers: workers, Region: region, Window: window,
			Fresh: explain || misspec > 0,
		}
		if m == "speccross" || m == "adaptive" {
			req.Misspec = misspec
		}
		resp, status, err := postRun(client, base, req)
		if err != nil {
			return err
		}
		switch {
		case status == 200:
			served := ""
			switch {
			case resp.Memo:
				served = ", served from memory, verified by " + resp.Leader
			case resp.Coalesced:
				served = ", coalesced onto " + resp.Leader
			}
			fmt.Printf("%-10s checksum %016x  %v  (remote %s, cache %s, analysis spans %d, invocation %s%s)\n",
				resp.Engine, resp.Checksum, time.Duration(resp.DurationNs).Round(time.Microsecond),
				addr, resp.Cache, resp.AnalysisSpans, resp.Invocation, served)
			if explain && m == "adaptive" && resp.Invocation != "" {
				entries, err := fetchDecisions(client, base, resp.Invocation)
				if err != nil {
					return err
				}
				fmt.Print(renderDecisions(entries))
			}
		case status == 422:
			fmt.Printf("%-10s inapplicable: %s\n", m, resp.Error)
		case status == 429 || status == 503:
			return fmt.Errorf("daemon at %s refused the invocation (%d): %s", addr, status, resp.Error)
		default:
			return fmt.Errorf("daemon at %s: %s (%d): %s", addr, m, status, resp.Error)
		}
	}
	return nil
}

// fetchDecisions pulls one invocation's journal entries from the daemon.
func fetchDecisions(client *http.Client, base, invocation string) ([]obs.DecisionEntry, error) {
	httpResp, err := client.Get(base + "/debug/decisions?invocation=" + url.QueryEscape(invocation))
	if err != nil {
		return nil, fmt.Errorf("fetching decision audit: %w", err)
	}
	defer httpResp.Body.Close()
	var doc struct {
		Schema  string              `json:"schema"`
		Entries []obs.DecisionEntry `json:"entries"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding decision audit: %w", err)
	}
	if doc.Schema != obs.DecisionsSchema {
		return nil, fmt.Errorf("daemon decision audit has schema %q, want %q", doc.Schema, obs.DecisionsSchema)
	}
	return doc.Entries, nil
}

// renderDecisions formats the decision audit: a header naming the engine
// runtime the run was given, then one window per line — the sampled signals
// the policy saw, what it chose, and why.
func renderDecisions(entries []obs.DecisionEntry) string {
	if len(entries) == 0 {
		return "  (no adaptive decisions recorded)\n"
	}
	var b strings.Builder
	// The runtime is the run's, not a window's: the last entry has seen
	// every thread the run started.
	last := entries[len(entries)-1]
	origin := "new"
	if last.RuntimeReused {
		origin = "reused"
	}
	fmt.Fprintf(&b, "  runtime: %s, %d threads, %d checker shards\n", origin, last.RuntimeThreads, last.CheckerShards)
	for _, e := range entries {
		verb := "stay"
		if e.Switched {
			verb = "switch"
		}
		fmt.Fprintf(&b, "  window %2d [%d,%d) %-9s %s→ %-9s  tasks %-5d misspec %-5v pressure %-6.2f prefilter %-5.2f  %s\n",
			e.Window, e.StartEpoch, e.EndEpoch, e.Engine, verb, e.Next,
			e.Tasks, e.Misspeculated, e.CheckerPressure, e.PrefilterHitRate, e.Reason)
	}
	if src := entries[0].SeedSource; src != "" {
		fmt.Fprintf(&b, "  seed: %s\n", src)
	}
	return b.String()
}

func postRun(client *http.Client, base string, req *daemon.RunRequest) (*daemon.RunResponse, int, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	httpResp, err := client.Post(base+"/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, 0, fmt.Errorf("reaching daemon: %w", err)
	}
	defer httpResp.Body.Close()
	var resp daemon.RunResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, httpResp.StatusCode, fmt.Errorf("decoding daemon response: %w", err)
	}
	return &resp, httpResp.StatusCode, nil
}
