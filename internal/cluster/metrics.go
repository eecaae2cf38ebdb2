package cluster

import (
	"sync/atomic"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// counters is the coordinator's own metric state, all atomics (the
// front end keeps the job books both daemons share).
type counters struct {
	chunksDispatched   atomic.Int64
	chunksCompleted    atomic.Int64
	chunksRedispatched atomic.Int64
	runsMerged         atomic.Int64
}

// ShardMetrics is one worker's slice of the coordinator's books. In
// the Prometheus view each field is a family asimcoord_shard_<key>,
// with one sample per shard labeled shard=<url>.
type ShardMetrics struct {
	URL                string `json:"url"`
	Healthy            bool   `json:"healthy" prom:"gauge" help:"Whether the shard is currently routable (1) or not (0)."`
	JobsRouted         int64  `json:"jobs_routed" help:"Jobs whose home (first-preference) shard this is."`
	ChunksDispatched   int64  `json:"chunks_dispatched" help:"Chunk streams opened against the shard."`
	ChunksCompleted    int64  `json:"chunks_completed" help:"Chunks the shard delivered completely."`
	ChunksRedispatched int64  `json:"chunks_redispatched" help:"Chunks the shard picked up after another shard failed them."`
	Failures           int64  `json:"failures" help:"The shard's failed dispatch attempts."`
}

// Metrics is one consistent-enough snapshot of the coordinator's
// books, served by GET /metrics as JSON and, under
// ?format=prometheus, as the exposition telemetry.Exposition derives
// from the same fields and tags. Counters are monotonic.
type Metrics struct {
	service.JobMetrics

	ChunksDispatched   int64 `json:"chunks_dispatched" help:"Chunk streams opened across all shards."`
	ChunksCompleted    int64 `json:"chunks_completed" help:"Chunks whose runs were all delivered."`
	ChunksRedispatched int64 `json:"chunks_redispatched" help:"Failover re-dispatches of a chunk's undelivered runs."`
	RunsMerged         int64 `json:"runs_merged" help:"Run lines merged into client streams."`

	ChunkLatency telemetry.HistogramSnapshot `json:"chunk_latency_seconds" help:"One chunk dispatch attempt's stream duration."`

	ShardsHealthy int            `json:"shards_healthy" prom:"gauge" help:"Shards currently routable."`
	Shards        []ShardMetrics `json:"shards" prom:"shard=url"` // per-shard books, in configuration order
}

// Metrics snapshots the coordinator's books.
func (c *Coordinator) Metrics() Metrics {
	m := Metrics{
		JobMetrics: c.fe.JobMetrics(),

		ChunksDispatched:   c.met.chunksDispatched.Load(),
		ChunksCompleted:    c.met.chunksCompleted.Load(),
		ChunksRedispatched: c.met.chunksRedispatched.Load(),
		RunsMerged:         c.met.runsMerged.Load(),

		ChunkLatency: c.chunkLatency.Snapshot(),
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
