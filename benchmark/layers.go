package main

import (
	"sync"
	"time"

	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
)

// perLayer are the traced pass's metrics: one group per module. Counts are
// means per operation (so they do not move with throughput), times are
// medians per call unless the name says otherwise. README.md maps each
// group to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	// lang + ir: the frontend.
	{Name: "lang.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "lang.source_mb_per_s", Unit: "MB/s", Better: "higher"},
	// analysis.
	{Name: "analysis.depend_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.xdep_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.lint_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.regions_per_program", Unit: "count", Better: "higher"},
	{Name: "analysis.xdep_none_share", Unit: "share", Better: "higher"},
	{Name: "analysis.xdep_forward_only_share", Unit: "share", Better: "higher"},
	{Name: "analysis.xdep_cyclic_share", Unit: "share", Better: "lower"},
	{Name: "analysis.xdep_unknown_share", Unit: "share", Better: "lower"},
	// transform.
	{Name: "transform.plan_domore_ms", Unit: "ms", Better: "lower"},
	{Name: "transform.detect_ms", Unit: "ms", Better: "lower"},
	// core: the two largest spans of the cold path.
	{Name: "core.oracle_ms", Unit: "ms", Better: "lower"},
	{Name: "core.profile_ms", Unit: "ms", Better: "lower"},
	// plancache.
	{Name: "plancache.get_us", Unit: "us", Better: "lower"},
	{Name: "plancache.put_us", Unit: "us", Better: "lower"},
	{Name: "plancache.hits_per_op", Unit: "count/op", Better: "higher"},
	{Name: "plancache.misses_per_op", Unit: "count/op", Better: "lower"},
	{Name: "plancache.puts_per_op", Unit: "count/op", Better: "lower"},
	{Name: "plancache.corrupt", Unit: "count", Better: "lower"},
	// daemon.
	{Name: "daemon.hot_share", Unit: "share", Better: "higher"},
	{Name: "daemon.warm_share", Unit: "share", Better: "higher"},
	{Name: "daemon.cold_share", Unit: "share", Better: "lower"},
	{Name: "daemon.admission_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.dispatch_self_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.rejected_429", Unit: "count", Better: "lower"},
	{Name: "daemon.status_5xx", Unit: "count", Better: "lower"},
	// runtime/domore (+ shadow, queue).
	{Name: "domore.iterations_per_op", Unit: "count/op", Better: "lower"},
	{Name: "domore.manifest_rate", Unit: "share", Better: "lower"},
	{Name: "domore.addr_checks_per_op", Unit: "count/op", Better: "lower"},
	{Name: "domore.stalls_per_op", Unit: "count/op", Better: "lower"},
	{Name: "domore.batches_per_op", Unit: "count/op", Better: "lower"},
	{Name: "domore.lane_waits_per_op", Unit: "count/op", Better: "lower"},
	{Name: "domore.iterations_per_s", Unit: "1/s", Better: "higher"},
	{Name: "domore.stall_time_share", Unit: "share", Better: "lower"},
	// runtime/speccross (+ signature).
	{Name: "speccross.tasks_per_op", Unit: "count/op", Better: "lower"},
	{Name: "speccross.comparisons_per_op", Unit: "count/op", Better: "lower"},
	{Name: "speccross.prefilter_hit_rate", Unit: "share", Better: "lower"},
	{Name: "speccross.checkpoints_per_op", Unit: "count/op", Better: "lower"},
	{Name: "speccross.misspeculations_per_op", Unit: "count/op", Better: "lower"},
	{Name: "speccross.reexecuted_epochs_per_op", Unit: "count/op", Better: "lower"},
	{Name: "speccross.range_stalls_per_op", Unit: "count/op", Better: "lower"},
	{Name: "speccross.useful_work_ratio", Unit: "share", Better: "higher"},
	{Name: "speccross.recovery_ms", Unit: "ms", Better: "lower"},
	// runtime/adaptive.
	{Name: "adaptive.windows_per_op", Unit: "count/op", Better: "lower"},
	{Name: "adaptive.switches_per_op", Unit: "count/op", Better: "lower"},
	{Name: "adaptive.domore_window_share", Unit: "share", Better: "higher"},
	{Name: "adaptive.speccross_window_share", Unit: "share", Better: "higher"},
	{Name: "adaptive.domore_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "adaptive.speccross_wall_ms", Unit: "ms", Better: "lower"},
	// runtime/barrier and sequential: supporting rows, never gated.
	{Name: "baseline.seq_ms", Unit: "ms", Better: "lower"},
	{Name: "baseline.barrier_ms", Unit: "ms", Better: "lower"},
	{Name: "baseline.speedup_vs_seq", Unit: "ratio", Better: "higher"},
	{Name: "baseline.speedup_vs_barrier", Unit: "ratio", Better: "higher"},
	// process and the tracer itself.
	{Name: "process.allocs_per_op", Unit: "count/op", Better: "lower"},
	{Name: "process.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
}

// engineTotals sums what the engines reported over the traced window. It
// is fed either from the engines' Stats (direct calls) or from a request's
// trace events (daemon calls), and is safe for concurrent clients.
type engineTotals struct {
	mu sync.Mutex

	domoreOps  int
	domore     domore.Stats
	domoreWall time.Duration
	// stallNs and laneNs give the stall time share: stalled lane time over
	// wall time × lanes, from the recorder the engine wrote to.
	stallNs, laneNs float64

	specOps    int
	spec       speccross.Stats
	reexecuted int64 // tasks re-executed after a rollback
	recoveryNs float64
	recoveries int

	adaptiveOps int
	windows     int
	switches    int
	engineWins  [adaptive.NumEngines]int
	engineWall  [adaptive.NumEngines]time.Duration
}

// addDomore records one DOMORE execution. rec is the recorder the engine
// wrote to and must be quiescent.
func (e *engineTotals) addDomore(s domore.Stats, wall time.Duration, rec *trace.Recorder) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.domoreOps++
	e.domore.Iterations += s.Iterations
	e.domore.Dispatches += s.Dispatches
	e.domore.SyncConditions += s.SyncConditions
	e.domore.Stalls += s.Stalls
	e.domore.AddrChecks += s.AddrChecks
	e.domore.Batches += s.Batches
	e.domore.LaneWaits += s.LaneWaits
	e.domoreWall += wall
	if rec != nil {
		e.stallNs += float64(rec.Metrics().TotalDuration("stall.ns"))
		e.laneNs += float64(wall) * float64(rec.Summary().Lanes)
	}
}

// addSpec records one SPECCROSS execution; tasksPerEpoch turns re-executed
// epochs into re-executed tasks for the useful-work ratio.
func (e *engineTotals) addSpec(s speccross.Stats, tasksPerEpoch float64, rec *trace.Recorder) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.specOps++
	e.spec.Tasks += s.Tasks
	e.spec.Comparisons += s.Comparisons
	e.spec.PrefilterChecks += s.PrefilterChecks
	e.spec.PrefilterHits += s.PrefilterHits
	e.spec.Checkpoints += s.Checkpoints
	e.spec.Misspeculations += s.Misspeculations
	e.spec.ReexecutedEpochs += s.ReexecutedEpochs
	e.spec.RangeStalls += s.RangeStalls
	e.reexecuted += int64(float64(s.ReexecutedEpochs) * tasksPerEpoch)
	if rec != nil && s.Misspeculations > 0 {
		e.recoveryNs += float64(rec.Metrics().TotalDuration("recovery.ns"))
		e.recoveries++
	}
}

// addAdaptive records one adaptive execution, with the DOMORE and SPECCROSS
// windows it ran; events carry the window boundaries the per-engine wall
// time is read from.
func (e *engineTotals) addAdaptive(s adaptive.Stats, tasksPerEpoch float64, events []trace.Event) {
	e.addDomore(s.Domore, 0, nil)
	e.addSpec(s.Spec, tasksPerEpoch, nil)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.adaptiveOps++
	e.windows += s.Windows
	e.switches += s.Switches
	for i, n := range s.EngineWindows {
		e.engineWins[i] += n
	}
	e.windowWall(events)
}

// windowWall attributes the time between consecutive window-begin events
// (the last one runs to the latest event) to the engine that ran the window.
func (e *engineTotals) windowWall(events []trace.Event) {
	prevAt, prevEngine, end := int64(-1), 0, int64(0)
	for _, ev := range events {
		if ev.Nanos > end {
			end = ev.Nanos
		}
		if ev.Kind != trace.KindWindowBegin {
			continue
		}
		if prevAt >= 0 {
			e.engineWall[prevEngine] += time.Duration(ev.Nanos - prevAt)
		}
		prevAt, prevEngine = ev.Nanos, int(ev.C)
	}
	if prevAt >= 0 && end > prevAt {
		e.engineWall[prevEngine] += time.Duration(end - prevAt)
	}
}

// addEvents records one daemon request from its captured trace events: the
// same counters the engines' Stats hold, recounted from the event stream
// (the daemon's response carries only the misspeculation count).
func (e *engineTotals) addEvents(engine string, events []trace.Event, wall time.Duration) {
	var n [trace.KindCount]int64
	var sumA [trace.KindCount]int64
	for _, ev := range events {
		n[ev.Kind]++
		sumA[ev.Kind] += ev.A
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n[trace.KindSchedule] > 0 {
		e.domoreOps++
		e.domore.Iterations += n[trace.KindSchedule]
		e.domore.SyncConditions += n[trace.KindSyncCond]
		e.domore.AddrChecks += sumA[trace.KindAddrCheck]
		e.domore.Stalls += n[trace.KindStallBegin]
		e.domoreWall += wall
	}
	if n[trace.KindTaskStart] > 0 {
		e.specOps++
		e.spec.Tasks += n[trace.KindTaskStart]
		e.spec.Comparisons += n[trace.KindSigCheck]
		e.spec.PrefilterChecks += n[trace.KindSigPrefilter]
		e.spec.PrefilterHits += sumA[trace.KindSigPrefilter]
		e.spec.Checkpoints += n[trace.KindCheckpoint]
		e.spec.Misspeculations += n[trace.KindMisspec]
		e.spec.ReexecutedEpochs += sumA[trace.KindRecoveryEnd]
		e.spec.RangeStalls += n[trace.KindRangeStallBegin]
	}
	if engine == "adaptive" {
		e.adaptiveOps++
		e.switches += int(n[trace.KindEngineSwitch])
		for _, ev := range events {
			if ev.Kind == trace.KindWindowBegin {
				e.windows++
				if int(ev.C) < len(e.engineWins) {
					e.engineWins[ev.C]++
				}
			}
		}
		e.windowWall(events)
	}
}

// report writes the three runtime groups into out.
func (e *engineTotals) report(out *layerSet) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, dn := e.domore, float64(e.domoreOps)
	out.set("domore.iterations_per_op", ratio(float64(d.Iterations), dn))
	out.set("domore.manifest_rate", ratio(float64(d.SyncConditions), float64(d.Iterations)))
	out.set("domore.addr_checks_per_op", ratio(float64(d.AddrChecks), dn))
	out.set("domore.stalls_per_op", ratio(float64(d.Stalls), dn))
	out.set("domore.batches_per_op", ratio(float64(d.Batches), dn))
	out.set("domore.lane_waits_per_op", ratio(float64(d.LaneWaits), dn))
	out.set("domore.iterations_per_s", ratio(float64(d.Iterations), e.domoreWall.Seconds()))
	out.set("domore.stall_time_share", ratio(e.stallNs, e.laneNs))

	s, sn := e.spec, float64(e.specOps)
	out.set("speccross.tasks_per_op", ratio(float64(s.Tasks), sn))
	out.set("speccross.comparisons_per_op", ratio(float64(s.Comparisons), sn))
	out.set("speccross.prefilter_hit_rate", ratio(float64(s.PrefilterHits), float64(s.PrefilterChecks)))
	out.set("speccross.checkpoints_per_op", ratio(float64(s.Checkpoints), sn))
	out.set("speccross.misspeculations_per_op", ratio(float64(s.Misspeculations), sn))
	out.set("speccross.reexecuted_epochs_per_op", ratio(float64(s.ReexecutedEpochs), sn))
	out.set("speccross.range_stalls_per_op", ratio(float64(s.RangeStalls), sn))
	out.set("speccross.useful_work_ratio", ratio(float64(s.Tasks), float64(s.Tasks+e.reexecuted)))
	out.set("speccross.recovery_ms", ratio(e.recoveryNs/1e6, float64(e.recoveries)))

	an := float64(e.adaptiveOps)
	out.set("adaptive.windows_per_op", ratio(float64(e.windows), an))
	out.set("adaptive.switches_per_op", ratio(float64(e.switches), an))
	dw := float64(e.engineWins[adaptive.EngineDomore] + e.engineWins[adaptive.EngineDomoreSharded])
	out.set("adaptive.domore_window_share", ratio(dw, float64(e.windows)))
	out.set("adaptive.speccross_window_share", ratio(float64(e.engineWins[adaptive.EngineSpecCross]), float64(e.windows)))
	out.set("adaptive.domore_wall_ms", ratio(ms(e.engineWall[adaptive.EngineDomore]+e.engineWall[adaptive.EngineDomoreSharded]), an))
	out.set("adaptive.speccross_wall_ms", ratio(ms(e.engineWall[adaptive.EngineSpecCross]), an))
}
