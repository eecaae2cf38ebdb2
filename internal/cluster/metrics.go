package cluster

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// counters is the coordinator's internal metric state, all atomics
// (the front end keeps the admission books).
type counters struct {
	jobsAccepted       atomic.Int64
	jobsCompleted      atomic.Int64
	jobsFailed         atomic.Int64
	jobsResumed        atomic.Int64
	jobsActive         atomic.Int64
	chunksDispatched   atomic.Int64
	chunksCompleted    atomic.Int64
	chunksRedispatched atomic.Int64
	runsMerged         atomic.Int64
	busyNanos          atomic.Int64
}

// ShardMetrics is one worker's slice of the coordinator's books.
type ShardMetrics struct {
	URL                string `json:"url"`
	Healthy            bool   `json:"healthy"`             // current routing eligibility
	JobsRouted         int64  `json:"jobs_routed"`         // jobs whose home shard this is
	ChunksDispatched   int64  `json:"chunks_dispatched"`   // chunk streams opened against it
	ChunksCompleted    int64  `json:"chunks_completed"`    // chunks it delivered completely
	ChunksRedispatched int64  `json:"chunks_redispatched"` // chunks it picked up after another shard failed them
	Failures           int64  `json:"failures"`            // its failed dispatch attempts (transport or truncated stream)
}

// Metrics is one consistent-enough snapshot of the coordinator's
// counters, served as JSON by GET /metrics. Counters are monotonic;
// JobsActive and QueueDepth are gauges.
type Metrics struct {
	JobsAccepted  int64 `json:"jobs_accepted"`  // admitted to run (after any queueing)
	JobsCompleted int64 `json:"jobs_completed"` // merged to completion, every run delivered
	JobsFailed    int64 `json:"jobs_failed"`    // deadline exceeded or chunks exhausted their retries
	JobsRejected  int64 `json:"jobs_rejected"`  // 429: queue full
	JobsAbandoned int64 `json:"jobs_abandoned"` // client disconnected mid-merge (job finishes; resumable)
	JobsBad       int64 `json:"jobs_bad"`       // 400/413: malformed or over limits
	JobsResumed   int64 `json:"jobs_resumed"`   // resume streams served from the merge buffer
	JobsActive    int64 `json:"jobs_active"`    // gauge: merging right now
	QueueDepth    int64 `json:"queue_depth"`    // gauge: waiting for a slot

	ChunksDispatched   int64 `json:"chunks_dispatched"`   // chunk streams opened across all shards
	ChunksCompleted    int64 `json:"chunks_completed"`    // chunks whose runs were all delivered
	ChunksRedispatched int64 `json:"chunks_redispatched"` // failover re-dispatches of a chunk's undelivered runs
	RunsMerged         int64 `json:"runs_merged"`         // run lines merged into client streams

	// BusySeconds sums per-job merge wall-clock; UptimeSeconds is how
	// long the coordinator has been up; Utilization is BusySeconds /
	// (UptimeSeconds x job slots) — the fraction of the coordinator's
	// merge capacity that has been driving campaigns.
	BusySeconds   float64 `json:"busy_seconds"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Utilization   float64 `json:"utilization"`

	// Latency histograms (seconds): full job merge latency, one chunk
	// dispatch attempt's stream, time jobs waited for a slot, and
	// merged-stream write stalls (one per batch of ready lines).
	JobLatency   telemetry.HistogramSnapshot `json:"job_latency_seconds"`
	ChunkLatency telemetry.HistogramSnapshot `json:"chunk_latency_seconds"`
	QueueWait    telemetry.HistogramSnapshot `json:"queue_wait_seconds"`
	WriteStall   telemetry.HistogramSnapshot `json:"write_stall_seconds"`

	// Trace ring occupancy: spans currently retained and spans evicted
	// since startup (the ring is bounded).
	TraceSpans   int64 `json:"trace_spans"`
	TraceDropped int64 `json:"trace_dropped"`

	ShardsHealthy int            `json:"shards_healthy"` // gauge: shards currently routable
	Shards        []ShardMetrics `json:"shards"`         // per-shard books, in configuration order
}

// Metrics snapshots the coordinator's counters.
func (c *Coordinator) Metrics() Metrics {
	m := Metrics{
		JobsAccepted:  c.met.jobsAccepted.Load(),
		JobsCompleted: c.met.jobsCompleted.Load(),
		JobsFailed:    c.met.jobsFailed.Load(),
		JobsRejected:  c.fe.JobsRejected.Load(),
		JobsAbandoned: c.fe.JobsAbandoned.Load(),
		JobsBad:       c.fe.JobsBad.Load(),
		JobsResumed:   c.met.jobsResumed.Load(),
		JobsActive:    c.met.jobsActive.Load(),
		QueueDepth:    c.fe.QueueDepth(),

		ChunksDispatched:   c.met.chunksDispatched.Load(),
		ChunksCompleted:    c.met.chunksCompleted.Load(),
		ChunksRedispatched: c.met.chunksRedispatched.Load(),
		RunsMerged:         c.met.runsMerged.Load(),

		BusySeconds: float64(c.met.busyNanos.Load()) / 1e9,

		JobLatency:   c.jobLatency.Snapshot(),
		ChunkLatency: c.chunkLatency.Snapshot(),
		QueueWait:    c.fe.QueueWait.Snapshot(),
		WriteStall:   c.fe.WriteStall.Snapshot(),

		TraceSpans:   int64(c.fe.Tracer.Len()),
		TraceDropped: c.fe.Tracer.Dropped(),
	}
	m.UptimeSeconds = time.Since(c.fe.Start).Seconds()
	if capacity := m.UptimeSeconds * float64(c.fe.MaxConcurrent); capacity > 0 {
		m.Utilization = m.BusySeconds / capacity
	}
	for _, sh := range c.shards {
		healthy := sh.isHealthy()
		if healthy {
			m.ShardsHealthy++
		}
		m.Shards = append(m.Shards, ShardMetrics{
			URL:                sh.url,
			Healthy:            healthy,
			JobsRouted:         sh.jobsRouted.Load(),
			ChunksDispatched:   sh.chunksDispatched.Load(),
			ChunksCompleted:    sh.chunksCompleted.Load(),
			ChunksRedispatched: sh.chunksRedispatched.Load(),
			Failures:           sh.failures.Load(),
		})
	}
	return m
}

// PromMetrics renders the same snapshot as a Prometheus text
// exposition (served by GET /metrics?format=prometheus). The JSON's
// per-shard slice becomes one family per book, labeled by shard URL.
func (c *Coordinator) PromMetrics() []byte {
	m := c.Metrics()
	var p telemetry.Prom
	p.Counter("asimcoord_jobs_accepted_total", "Jobs admitted to run (after any queueing).", float64(m.JobsAccepted))
	p.Counter("asimcoord_jobs_completed_total", "Jobs merged to completion, every run delivered.", float64(m.JobsCompleted))
	p.Counter("asimcoord_jobs_failed_total", "Jobs that exceeded their deadline or exhausted chunk retries.", float64(m.JobsFailed))
	p.Counter("asimcoord_jobs_rejected_total", "Jobs rejected with 429 (queue full).", float64(m.JobsRejected))
	p.Counter("asimcoord_jobs_abandoned_total", "Merged streams whose client disconnected (job finishes; resumable).", float64(m.JobsAbandoned))
	p.Counter("asimcoord_jobs_bad_total", "Malformed or over-limit requests (400/413).", float64(m.JobsBad))
	p.Counter("asimcoord_jobs_resumed_total", "Resume streams served from the merge buffer.", float64(m.JobsResumed))
	p.Gauge("asimcoord_jobs_active", "Jobs merging right now.", float64(m.JobsActive))
	p.Gauge("asimcoord_queue_depth", "Jobs waiting for a slot.", float64(m.QueueDepth))
	p.Counter("asimcoord_chunks_dispatched_total", "Chunk streams opened across all shards.", float64(m.ChunksDispatched))
	p.Counter("asimcoord_chunks_completed_total", "Chunks whose runs were all delivered.", float64(m.ChunksCompleted))
	p.Counter("asimcoord_chunks_redispatched_total", "Failover re-dispatches of a chunk's undelivered runs.", float64(m.ChunksRedispatched))
	p.Counter("asimcoord_runs_merged_total", "Run lines merged into client streams.", float64(m.RunsMerged))
	p.Counter("asimcoord_busy_seconds_total", "Summed per-job merge wall-clock time.", m.BusySeconds)
	p.Gauge("asimcoord_uptime_seconds", "Seconds since the coordinator started.", m.UptimeSeconds)
	p.Gauge("asimcoord_utilization", "busy_seconds / (uptime x job slots).", m.Utilization)
	p.Histogram("asimcoord_job_latency_seconds", "Full job merge latency, admission to trailer.", m.JobLatency)
	p.Histogram("asimcoord_chunk_latency_seconds", "One chunk dispatch attempt's stream duration.", m.ChunkLatency)
	p.Histogram("asimcoord_queue_wait_seconds", "Time jobs waited for a slot.", m.QueueWait)
	p.Histogram("asimcoord_write_stall_seconds", "Merged-stream write+flush time per batch of ready lines.", m.WriteStall)
	p.Gauge("asimcoord_trace_spans", "Spans retained in the trace ring.", float64(m.TraceSpans))
	p.Counter("asimcoord_trace_dropped_total", "Spans evicted from the trace ring.", float64(m.TraceDropped))
	p.Gauge("asimcoord_shards_healthy", "Shards currently routable.", float64(m.ShardsHealthy))

	healthy := make([]telemetry.LabeledValue, len(m.Shards))
	routed := make([]telemetry.LabeledValue, len(m.Shards))
	dispatched := make([]telemetry.LabeledValue, len(m.Shards))
	completed := make([]telemetry.LabeledValue, len(m.Shards))
	redispatched := make([]telemetry.LabeledValue, len(m.Shards))
	failures := make([]telemetry.LabeledValue, len(m.Shards))
	for i, sh := range m.Shards {
		h := 0.0
		if sh.Healthy {
			h = 1
		}
		healthy[i] = telemetry.LabeledValue{Label: sh.URL, V: h}
		routed[i] = telemetry.LabeledValue{Label: sh.URL, V: float64(sh.JobsRouted)}
		dispatched[i] = telemetry.LabeledValue{Label: sh.URL, V: float64(sh.ChunksDispatched)}
		completed[i] = telemetry.LabeledValue{Label: sh.URL, V: float64(sh.ChunksCompleted)}
		redispatched[i] = telemetry.LabeledValue{Label: sh.URL, V: float64(sh.ChunksRedispatched)}
		failures[i] = telemetry.LabeledValue{Label: sh.URL, V: float64(sh.Failures)}
	}
	p.GaugeVec("asimcoord_shard_healthy", "Whether the shard is currently routable (1) or not (0).", "shard", healthy)
	p.CounterVec("asimcoord_shard_jobs_routed_total", "Jobs whose home (first-preference) shard this is.", "shard", routed)
	p.CounterVec("asimcoord_shard_chunks_dispatched_total", "Chunk streams opened against the shard.", "shard", dispatched)
	p.CounterVec("asimcoord_shard_chunks_completed_total", "Chunks the shard delivered completely.", "shard", completed)
	p.CounterVec("asimcoord_shard_chunks_redispatched_total", "Chunks the shard picked up after another shard failed them.", "shard", redispatched)
	p.CounterVec("asimcoord_shard_failures_total", "The shard's failed dispatch attempts.", "shard", failures)
	return p.Bytes()
}
