package service

import (
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// counters is the server's internal metric state (the front end keeps
// the admission books). Everything is a plain atomic so the hot path
// (one job) touches a handful of adds.
type counters struct {
	jobsAccepted     atomic.Int64
	jobsChunked      atomic.Int64
	jobsCompleted    atomic.Int64
	jobsFailed       atomic.Int64
	jobsActive       atomic.Int64
	jobsResumed      atomic.Int64
	jobsRecovered    atomic.Int64
	checkpoints      atomic.Int64
	checkpointErrors atomic.Int64
	runsTotal        atomic.Int64
	cyclesTotal      atomic.Int64
	busyNanos        atomic.Int64

	// Per-rung dispatch books, indexed parallel to campaign.Rungs.
	rungRuns   [4]atomic.Int64
	rungCycles [4]atomic.Int64
}

// rungIndex maps a dispatch rung to its slot in the per-rung arrays.
func rungIndex(rung string) int {
	for i, r := range campaign.Rungs {
		if r == rung {
			return i
		}
	}
	return -1
}

// noteDispatch books one engine dispatch unit onto the per-rung
// meters; the engine's Observe hook calls it from worker goroutines.
func (c *counters) noteDispatch(d campaign.Dispatch) {
	if i := rungIndex(d.Rung); i >= 0 {
		c.rungRuns[i].Add(int64(d.Runs))
		c.rungCycles[i].Add(d.Cycles)
	}
}

// Metrics is one consistent-enough snapshot of the server's counters,
// served as JSON by GET /metrics (and, reshaped, as the Prometheus
// exposition under ?format=prometheus). Counters are monotonic over
// the server's lifetime; JobsActive, QueueDepth, Utilization and
// UptimeSeconds are gauges.
type Metrics struct {
	JobsAccepted  int64 `json:"jobs_accepted"`  // admitted to run (after any queueing)
	JobsChunked   int64 `json:"jobs_chunked"`   // admitted jobs that were chunk-scoped shard dispatches
	JobsCompleted int64 `json:"jobs_completed"` // finished without an engine error
	JobsFailed    int64 `json:"jobs_failed"`    // deadline exceeded or engine error
	JobsRejected  int64 `json:"jobs_rejected"`  // 429: queue full
	JobsAbandoned int64 `json:"jobs_abandoned"` // client disconnected while queued or mid-stream (resumable)
	JobsBad       int64 `json:"jobs_bad"`       // 400/413: malformed or over limits
	JobsActive    int64 `json:"jobs_active"`    // gauge: executing right now
	QueueDepth    int64 `json:"queue_depth"`    // gauge: waiting for a slot

	JobsResumed      int64 `json:"jobs_resumed"`      // resume streams served
	JobsRecovered    int64 `json:"jobs_recovered"`    // incomplete jobs re-admitted at startup
	Checkpoints      int64 `json:"checkpoints"`       // run snapshots persisted
	CheckpointErrors int64 `json:"checkpoint_errors"` // run snapshots the store failed to write

	RunsTotal   int64   `json:"runs_total"`   // runs across all finished jobs
	CyclesTotal int64   `json:"cycles_total"` // simulated cycles across all finished jobs
	BusySeconds float64 `json:"busy_seconds"` // summed per-job wall-clock
	CyclesPerS  float64 `json:"cycles_per_s"` // CyclesTotal / BusySeconds

	// UptimeSeconds is how long the server has been up; Utilization is
	// BusySeconds / (UptimeSeconds x job slots) — the fraction of the
	// server's job-slot capacity that has been executing campaigns,
	// derived from the same busy_seconds the JSON always carried.
	UptimeSeconds float64 `json:"uptime_seconds"`
	Utilization   float64 `json:"utilization"`

	// Per-rung dispatch books: how many runs (and simulated cycles)
	// each rung of the dispatch ladder actually executed.
	RunsAOT         int64 `json:"runs_aot"`
	RunsBitParallel int64 `json:"runs_bit_parallel"`
	RunsLaneLoop    int64 `json:"runs_lane_loop"`
	RunsScalar      int64 `json:"runs_scalar"`
	CyclesAOT       int64 `json:"cycles_aot"`
	CyclesBitGang   int64 `json:"cycles_bit_parallel"`
	CyclesLaneLoop  int64 `json:"cycles_lane_loop"`
	CyclesScalar    int64 `json:"cycles_scalar"`

	// Latency histograms (seconds): full job latency from arrival to
	// trailer, time spent waiting for a job slot, and stream write
	// stalls (how long each NDJSON line — or a resume follower's ready
	// batch — took to write+flush).
	JobLatency telemetry.HistogramSnapshot `json:"job_latency_seconds"`
	QueueWait  telemetry.HistogramSnapshot `json:"queue_wait_seconds"`
	WriteStall telemetry.HistogramSnapshot `json:"write_stall_seconds"`

	// Trace ring occupancy: spans currently retained and spans evicted
	// since startup (the ring is bounded).
	TraceSpans   int64 `json:"trace_spans"`
	TraceDropped int64 `json:"trace_dropped"`

	CacheHits     int64 `json:"cache_hits"`     // program-cache hits
	CacheMisses   int64 `json:"cache_misses"`   // program-cache compilations
	CachePrograms int   `json:"cache_programs"` // distinct cached (digest, backend) keys

	// AOT binary-cache counters, all zero unless the engine was built
	// with an aot.Cache (asimd -aot).
	AOTBuilds    int64 `json:"aot_builds"`    // worker binaries compiled
	AOTHits      int64 `json:"aot_hits"`      // requests served from the disk cache
	AOTFallbacks int64 `json:"aot_fallbacks"` // dispatches degraded to in-process backends
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		JobsAccepted:  s.met.jobsAccepted.Load(),
		JobsChunked:   s.met.jobsChunked.Load(),
		JobsCompleted: s.met.jobsCompleted.Load(),
		JobsFailed:    s.met.jobsFailed.Load(),
		JobsRejected:  s.fe.JobsRejected.Load(),
		JobsAbandoned: s.fe.JobsAbandoned.Load(),
		JobsBad:       s.fe.JobsBad.Load(),
		JobsActive:    s.met.jobsActive.Load(),
		QueueDepth:    s.fe.QueueDepth(),

		JobsResumed:      s.met.jobsResumed.Load(),
		JobsRecovered:    s.met.jobsRecovered.Load(),
		Checkpoints:      s.met.checkpoints.Load(),
		CheckpointErrors: s.met.checkpointErrors.Load(),

		RunsTotal:   s.met.runsTotal.Load(),
		CyclesTotal: s.met.cyclesTotal.Load(),
		BusySeconds: float64(s.met.busyNanos.Load()) / 1e9,

		RunsAOT:         s.met.rungRuns[0].Load(),
		RunsBitParallel: s.met.rungRuns[1].Load(),
		RunsLaneLoop:    s.met.rungRuns[2].Load(),
		RunsScalar:      s.met.rungRuns[3].Load(),
		CyclesAOT:       s.met.rungCycles[0].Load(),
		CyclesBitGang:   s.met.rungCycles[1].Load(),
		CyclesLaneLoop:  s.met.rungCycles[2].Load(),
		CyclesScalar:    s.met.rungCycles[3].Load(),

		JobLatency: s.jobLatency.Snapshot(),
		QueueWait:  s.fe.QueueWait.Snapshot(),
		WriteStall: s.fe.WriteStall.Snapshot(),

		TraceSpans:   int64(s.fe.Tracer.Len()),
		TraceDropped: s.fe.Tracer.Dropped(),

		CacheHits:     s.cache.Hits(),
		CacheMisses:   s.cache.Misses(),
		CachePrograms: s.cache.Len(),
	}
	if m.BusySeconds > 0 {
		m.CyclesPerS = float64(m.CyclesTotal) / m.BusySeconds
	}
	m.UptimeSeconds = time.Since(s.fe.Start).Seconds()
	if capacity := m.UptimeSeconds * float64(s.fe.MaxConcurrent); capacity > 0 {
		m.Utilization = m.BusySeconds / capacity
	}
	if aot := s.cfg.Engine.AOT; aot != nil {
		m.AOTBuilds = aot.Builds()
		m.AOTHits = aot.Hits()
		m.AOTFallbacks = aot.Fallbacks()
	}
	return m
}

// PromMetrics renders the same snapshot as a Prometheus text
// exposition (served by GET /metrics?format=prometheus). The flat
// per-rung JSON fields become one labeled family per unit here.
func (s *Server) PromMetrics() []byte {
	m := s.Metrics()
	var p telemetry.Prom
	p.Counter("asimd_jobs_accepted_total", "Jobs admitted to run (after any queueing).", float64(m.JobsAccepted))
	p.Counter("asimd_jobs_chunked_total", "Admitted jobs that were chunk-scoped shard dispatches.", float64(m.JobsChunked))
	p.Counter("asimd_jobs_completed_total", "Jobs finished without an engine error.", float64(m.JobsCompleted))
	p.Counter("asimd_jobs_failed_total", "Jobs that exceeded their deadline or hit an engine error.", float64(m.JobsFailed))
	p.Counter("asimd_jobs_rejected_total", "Jobs rejected with 429 (queue full).", float64(m.JobsRejected))
	p.Counter("asimd_jobs_abandoned_total", "Jobs whose client disconnected while queued or mid-stream.", float64(m.JobsAbandoned))
	p.Counter("asimd_jobs_bad_total", "Malformed or over-limit requests (400/413).", float64(m.JobsBad))
	p.Gauge("asimd_jobs_active", "Jobs executing right now.", float64(m.JobsActive))
	p.Gauge("asimd_queue_depth", "Jobs waiting for a slot.", float64(m.QueueDepth))
	p.Counter("asimd_jobs_resumed_total", "Resume streams served.", float64(m.JobsResumed))
	p.Counter("asimd_jobs_recovered_total", "Incomplete jobs re-admitted at startup.", float64(m.JobsRecovered))
	p.Counter("asimd_checkpoints_total", "Run snapshots persisted.", float64(m.Checkpoints))
	p.Counter("asimd_checkpoint_errors_total", "Run snapshots the store failed to write.", float64(m.CheckpointErrors))
	p.Counter("asimd_runs_total", "Runs across all finished jobs.", float64(m.RunsTotal))
	p.Counter("asimd_cycles_total", "Simulated cycles across all finished jobs.", float64(m.CyclesTotal))
	p.Counter("asimd_busy_seconds_total", "Summed per-job wall-clock execution time.", m.BusySeconds)
	p.Gauge("asimd_uptime_seconds", "Seconds since the server started.", m.UptimeSeconds)
	p.Gauge("asimd_utilization", "busy_seconds / (uptime x job slots).", m.Utilization)
	p.CounterVec("asimd_rung_runs_total", "Runs executed per dispatch-ladder rung.", "rung", []telemetry.LabeledValue{
		{Label: campaign.RungAOT, V: float64(m.RunsAOT)},
		{Label: campaign.RungBitParallel, V: float64(m.RunsBitParallel)},
		{Label: campaign.RungLaneLoop, V: float64(m.RunsLaneLoop)},
		{Label: campaign.RungScalar, V: float64(m.RunsScalar)},
	})
	p.CounterVec("asimd_rung_cycles_total", "Simulated cycles executed per dispatch-ladder rung.", "rung", []telemetry.LabeledValue{
		{Label: campaign.RungAOT, V: float64(m.CyclesAOT)},
		{Label: campaign.RungBitParallel, V: float64(m.CyclesBitGang)},
		{Label: campaign.RungLaneLoop, V: float64(m.CyclesLaneLoop)},
		{Label: campaign.RungScalar, V: float64(m.CyclesScalar)},
	})
	p.Histogram("asimd_job_latency_seconds", "Full job latency, arrival to trailer.", m.JobLatency)
	p.Histogram("asimd_queue_wait_seconds", "Time jobs waited for a slot.", m.QueueWait)
	p.Histogram("asimd_write_stall_seconds", "Stream write+flush time per write (a line, or a resume follower's ready batch).", m.WriteStall)
	p.Gauge("asimd_trace_spans", "Spans retained in the trace ring.", float64(m.TraceSpans))
	p.Counter("asimd_trace_dropped_total", "Spans evicted from the trace ring.", float64(m.TraceDropped))
	p.Counter("asimd_cache_hits_total", "Program-cache hits.", float64(m.CacheHits))
	p.Counter("asimd_cache_misses_total", "Program-cache compilations.", float64(m.CacheMisses))
	p.Gauge("asimd_cache_programs", "Distinct cached (digest, backend) keys.", float64(m.CachePrograms))
	p.Counter("asimd_aot_builds_total", "AOT worker binaries compiled.", float64(m.AOTBuilds))
	p.Counter("asimd_aot_hits_total", "AOT requests served from the disk cache.", float64(m.AOTHits))
	p.Counter("asimd_aot_fallbacks_total", "AOT dispatches degraded to in-process backends.", float64(m.AOTFallbacks))
	return p.Bytes()
}
