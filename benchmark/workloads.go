package main

import "sort"

// allWorkloads are the six workloads, in the order they run. Names are stable:
// later issues refer to them. Each why is repeated in BENCHMARK.json.
var allWorkloads = []workloadDef{
	{name: "engine.dense", loop: "closed, 1 driver", setups: 25, setup: setupDense,
		why: "DomoreOK registry programs under domore.Run and RunSharded: dependences manifest on most iterations, so scheduler, shadow and queue do the work and speculation does none"},
	{name: "engine.sparse", loop: "closed, 1 driver", setups: 25, setup: setupSparse,
		why: "SpecOK registry programs under speccross.Run, plain and with one forced misspeculation: rare dependences, so signature, checker and checkpoint/restore do the work and DOMORE does none"},
	{name: "engine.phased", loop: "closed, 1 driver", setups: 41, setup: setupPhased,
		why: "dense/sparse/dense phase kernels under adaptive.Run cold and fact-seeded: only the controller's window, switch and hand-off cost decide the result"},
	{name: "compiled.regions", loop: "closed, 1 driver", setups: 5, setup: setupRegions,
		why: "32 generated LNL programs compiled once, then run under every core.Run* mode: the interpreter-backed mtcg/speccrossgen regions do all the work with no daemon in the way"},
	{name: "daemon.hot-zipf", loop: "closed, nproc clients", setups: 5, setup: setupHotZipf,
		why: "crossinvd over loopback HTTP, 64 warmed programs drawn zipf(1.1) with a 70/10/10/10 mode mix: duplicate-heavy hot traffic, so admission, dispatch, the program cache and HTTP do their largest share"},
	{name: "daemon.cold-churn", loop: "closed, nproc clients", setups: 3, setup: setupColdChurn,
		why: "crossinvd with 90% never-seen programs through the whole pipeline and 10% plans replayed from a previous server's cache: frontend, analysis, profile and plancache do the work, sharing does none"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
