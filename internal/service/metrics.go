package service

import (
	"sync/atomic"

	"repro/internal/campaign"
)

// counters is the server's own metric state; the job books both
// daemons keep live in the front end. Everything is a plain atomic so
// the hot path (one job) touches a handful of adds.
type counters struct {
	jobsChunked      atomic.Int64
	jobsRecovered    atomic.Int64
	checkpoints      atomic.Int64
	checkpointErrors atomic.Int64
	runsTotal        atomic.Int64
	cyclesTotal      atomic.Int64

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

// Metrics is one consistent-enough snapshot of the server's books,
// served by GET /metrics as JSON and, under ?format=prometheus, as the
// exposition telemetry.Exposition derives from the same fields and
// tags. Counters are monotonic over the server's lifetime.
type Metrics struct {
	JobMetrics

	JobsChunked      int64 `json:"jobs_chunked" help:"Admitted jobs that were chunk-scoped shard dispatches."`
	JobsRecovered    int64 `json:"jobs_recovered" help:"Incomplete jobs re-admitted at startup."`
	Checkpoints      int64 `json:"checkpoints" help:"Run snapshots persisted."`
	CheckpointErrors int64 `json:"checkpoint_errors" help:"Run snapshots the store failed to write."`

	RunsTotal   int64   `json:"runs_total" help:"Runs across all finished jobs."`
	CyclesTotal int64   `json:"cycles_total" help:"Simulated cycles across all finished jobs."`
	CyclesPerS  float64 `json:"cycles_per_s" prom:"-"` // CyclesTotal / BusySeconds

	// Per-rung dispatch books: how many runs (and simulated cycles)
	// each rung of the dispatch ladder actually executed. The labels
	// are campaign.Rungs.
	RunsAOT         int64 `json:"runs_aot" prom:"rung_runs,rung=aot" help:"Runs executed per dispatch-ladder rung."`
	RunsBitParallel int64 `json:"runs_bit_parallel" prom:"rung_runs,rung=bit-parallel"`
	RunsLaneLoop    int64 `json:"runs_lane_loop" prom:"rung_runs,rung=lane-loop"`
	RunsScalar      int64 `json:"runs_scalar" prom:"rung_runs,rung=scalar"`
	CyclesAOT       int64 `json:"cycles_aot" prom:"rung_cycles,rung=aot" help:"Simulated cycles executed per dispatch-ladder rung."`
	CyclesBitGang   int64 `json:"cycles_bit_parallel" prom:"rung_cycles,rung=bit-parallel"`
	CyclesLaneLoop  int64 `json:"cycles_lane_loop" prom:"rung_cycles,rung=lane-loop"`
	CyclesScalar    int64 `json:"cycles_scalar" prom:"rung_cycles,rung=scalar"`

	CacheHits     int64 `json:"cache_hits" help:"Program-cache hits."`
	CacheMisses   int64 `json:"cache_misses" help:"Program-cache compilations."`
	CacheFlushes  int64 `json:"cache_flushes" help:"Program-cache generations dropped at the key bound."`
	CachePrograms int   `json:"cache_programs" prom:"gauge" help:"Distinct cached (digest, backend) keys."`

	// AOT binary-cache counters, all zero unless the engine was built
	// with an aot.Cache (asimd -aot).
	AOTBuilds    int64 `json:"aot_builds" help:"AOT worker binaries compiled."`
	AOTHits      int64 `json:"aot_hits" help:"AOT requests served from the disk cache."`
	AOTFallbacks int64 `json:"aot_fallbacks" help:"AOT dispatches degraded to in-process backends."`
}

// Metrics snapshots the server's books.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		JobMetrics: s.fe.JobMetrics(),

		JobsChunked:      s.met.jobsChunked.Load(),
		JobsRecovered:    s.met.jobsRecovered.Load(),
		Checkpoints:      s.met.checkpoints.Load(),
		CheckpointErrors: s.met.checkpointErrors.Load(),

		RunsTotal:   s.met.runsTotal.Load(),
		CyclesTotal: s.met.cyclesTotal.Load(),

		RunsAOT:         s.met.rungRuns[0].Load(),
		RunsBitParallel: s.met.rungRuns[1].Load(),
		RunsLaneLoop:    s.met.rungRuns[2].Load(),
		RunsScalar:      s.met.rungRuns[3].Load(),
		CyclesAOT:       s.met.rungCycles[0].Load(),
		CyclesBitGang:   s.met.rungCycles[1].Load(),
		CyclesLaneLoop:  s.met.rungCycles[2].Load(),
		CyclesScalar:    s.met.rungCycles[3].Load(),

		CacheHits:     s.cache.Hits(),
		CacheMisses:   s.cache.Misses(),
		CacheFlushes:  s.cache.Flushes(),
		CachePrograms: s.cache.Len(),
	}
	if m.BusySeconds > 0 {
		m.CyclesPerS = float64(m.CyclesTotal) / m.BusySeconds
	}
	if aot := s.cfg.Engine.AOT; aot != nil {
		m.AOTBuilds = aot.Builds()
		m.AOTHits = aot.Hits()
		m.AOTFallbacks = aot.Fallbacks()
	}
	return m
}
