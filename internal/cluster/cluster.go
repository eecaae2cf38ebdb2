// Package cluster is the distributed campaign fabric: a coordinator
// that serves the exact POST /v1/jobs API of a single asimd while
// fanning each campaign out across a static list of asimd -shard
// workers and merging their streams back into one.
//
// Three rules shape the fabric:
//
//   - Routing is by content. A job's route key — the spec's canonical
//     digest, or the scenario's name and parameters — walks a
//     consistent-hash ring of shards, so the same design always
//     prefers the same worker and that worker's program cache and AOT
//     binary cache stay hot for it. Chunks spill to the next shard on
//     the ring only when the preferred one is busy or unhealthy.
//   - The merge is exactly-once and byte-identical. Shards execute
//     chunk-scoped jobs (service.ChunkRequest) and render every run
//     line under its global index, byte-for-byte what an unchunked
//     single-node execution would stream. The coordinator dedups by
//     index and delivers lines in strict index order, so the merged
//     stream's run lines are invariant under shard count, chunk size,
//     re-dispatch and client disconnects.
//   - Failure moves work, not results. Workers are health-checked
//     (periodic /healthz probes with backoff, plus dispatch failures);
//     when a shard dies mid-chunk, the chunk's undelivered runs are
//     re-dispatched to a survivor, warm-started from the checkpoint
//     lines the dead stream managed to deliver. Delivered lines are
//     never re-requested, let alone re-emitted.
//
// Endpoints: POST /v1/jobs (NDJSON stream, resume tokens included),
// GET /v1/scenarios, GET /v1/shards, GET /healthz, GET /metrics.
package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// Config parameterizes a Coordinator. Shards is required; the zero
// value of every other field picks a sensible default.
type Config struct {
	// Shards is the static list of asimd -shard base URLs (e.g.
	// "http://10.0.0.2:8420"); a bare host:port gets "http://". At
	// least one is required. The list is fixed for the coordinator's
	// lifetime — health checking marks members routable or not, it
	// never adds or removes them.
	Shards []string

	// ChunkRuns is how many runs each dispatched chunk carries; <= 0
	// means 64. Smaller chunks spread a campaign across more shards
	// and shrink the re-dispatch unit on failure; larger ones
	// amortize per-dispatch overhead and keep gangs full.
	ChunkRuns int

	// Limits is the admission surface shared with asimd — same
	// fields, same defaults, same 429/413/400 answers: job slots (here,
	// jobs merging at once) and queue, per-job caps, deadlines, the
	// per-line write timeout.
	service.Limits

	// Health probing: every HealthInterval (<= 0: 2s) each shard's
	// /healthz is probed with HealthTimeout (<= 0: 1s); HealthFails
	// (<= 0: 2) consecutive failures — probes or dispatch errors —
	// mark a shard unrouteable. Unhealthy shards are re-probed with
	// exponential backoff and readmitted on the first success.
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	HealthFails    int

	// ShardInflight is how many chunks may stream from one shard at
	// once; <= 0 means 2. Matches the shard's own job slots: an asimd
	// -jobs N worker should get ShardInflight = N.
	ShardInflight int

	// Retries is how many times a chunk's undelivered remainder is
	// re-dispatched after a failed stream; <= 0 means 3.
	Retries int

	// RetainJobs is how many finished jobs keep their line log in
	// memory for resume; <= 0 means 16. Coordinator resume is
	// in-memory: it survives client disconnects, not coordinator
	// restarts (each shard's durable store is per-worker).
	RetainJobs int

	// Client, when non-nil, carries chunk streams (tests inject
	// failure here); nil uses a default streaming client.
	Client *http.Client

	// Tracer receives the coordinator's spans (admit, plan, chunk
	// dispatches, whole jobs); nil makes a private bounded ring of
	// service.DefaultTraceSpans. Spans are served by GET /v1/trace/{job}.
	Tracer *telemetry.Tracer

	// Log receives structured operational logs; nil discards them.
	Log *slog.Logger

	// Pprof mounts net/http/pprof handlers under /debug/pprof/.
	Pprof bool
}

func (c Config) chunkRuns() int                { return defInt(c.ChunkRuns, 64) }
func (c Config) healthFails() int              { return defInt(c.HealthFails, 2) }
func (c Config) shardInflight() int            { return defInt(c.ShardInflight, 2) }
func (c Config) retries() int                  { return defInt(c.Retries, 3) }
func (c Config) retainJobs() int               { return defInt(c.RetainJobs, 16) }
func (c Config) healthInterval() time.Duration { return defDur(c.HealthInterval, 2*time.Second) }
func (c Config) healthTimeout() time.Duration  { return defDur(c.HealthTimeout, time.Second) }

func defInt(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func defDur(v, def time.Duration) time.Duration {
	if v > 0 {
		return v
	}
	return def
}

// Coordinator is the cluster front end. Create with New; it is an
// http.Handler serving the same surface as a single asimd — through
// the same service.FrontEnd — plus GET /v1/shards. Close stops the
// health prober.
type Coordinator struct {
	cfg          Config
	fe           *service.FrontEnd // decode, admission, deadlines, following — shared with asimd
	shards       []*shard
	freed        wake // any shard's slot released, or a shard readmitted
	ring         *ring
	client       *http.Client // chunk streams
	healthClient *http.Client // /healthz probes
	mux          *http.ServeMux

	jobMu    sync.Mutex
	jobs     map[string]*coordJob
	finished []string // retention order of finished jobs

	jobSeq       atomic.Int64
	met          counters
	chunkLatency *telemetry.Histogram

	stop     chan struct{}
	stopOnce sync.Once
}

// New builds a Coordinator over the configured shards and starts its
// health prober.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	fe := service.NewFrontEnd(cfg.Limits, cfg.Tracer, cfg.Log)
	c := &Coordinator{
		cfg:    cfg,
		fe:     fe,
		client: cfg.Client,
		jobs:   map[string]*coordJob{},
		stop:   make(chan struct{}),

		chunkLatency: telemetry.NewHistogram(telemetry.LatencyBuckets()...),
	}
	seen := map[string]bool{}
	for _, raw := range cfg.Shards {
		url := strings.TrimRight(strings.TrimSpace(raw), "/")
		if url == "" {
			return nil, errors.New("cluster: empty shard URL")
		}
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		if seen[url] {
			return nil, fmt.Errorf("cluster: duplicate shard %s", url)
		}
		seen[url] = true
		c.shards = append(c.shards, newShard(url, cfg.shardInflight(), &c.freed))
	}
	c.ring = newRing(c.shards)
	if c.client == nil {
		// No overall timeout: chunk streams legitimately run for the
		// whole job deadline; the per-request context bounds them.
		c.client = &http.Client{}
	}
	c.healthClient = &http.Client{Timeout: cfg.healthTimeout()}

	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/jobs", c.handleJob)
	// The operator's routing-table view: the per-shard slice of
	// /metrics, without the coordinator totals.
	c.mux.HandleFunc("GET /v1/shards", service.JSONHandler(func() any { return c.Metrics().Shards }))
	fe.Mount(c.mux, "asimcoord_", func() any { return c.Metrics() }, cfg.Pprof)

	go c.probeLoop()
	return c, nil
}

// Tracer exposes the coordinator's span ring (for -trace-out dumps).
func (c *Coordinator) Tracer() *telemetry.Tracer { return c.fe.Tracer }

// Close stops the health prober. In-flight jobs finish on their own.
func (c *Coordinator) Close() { c.stopOnce.Do(func() { close(c.stop) }) }

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

func (c *Coordinator) probeLoop() {
	t := time.NewTicker(c.cfg.healthInterval())
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		for _, sh := range c.shards {
			sh.maybeProbe(c.healthClient, c.cfg.healthFails())
		}
	}
}

// handleJob admits one job, fans it out in the background, and
// follows the merge for this client. The request surface is exactly
// asimd's — same JSON body, same NDJSON response shape — except that
// the shard-protocol fields are the coordinator's to send, not to
// receive (the planner rejects them, as on any asimd without -shard).
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	req, ok := c.fe.Decode(w, r)
	if !ok {
		return
	}
	if req.Resume != nil {
		c.handleResume(w, r, *req.Resume)
		return
	}

	// The trace id Admit honors or mints is fabric-wide: it rides every
	// chunk dispatch as X-Asim-Trace, so the shards' spans join the
	// coordinator's under one id.
	id := fmt.Sprintf("c%d", c.jobSeq.Add(1))
	trace, _, ok := c.fe.Admit(w, r, id, func() error { return nil }) // nothing to spill: the coordinator keeps jobs in memory
	if !ok {
		return
	}
	planStart := time.Now()
	p, err := c.fe.Plan(id, req, false)
	if err != nil {
		c.fe.Release()
		c.fe.Tracer.Record(telemetry.Timed(telemetry.Span{Trace: trace, Job: id, Name: "plan", Err: err.Error()}, planStart))
		c.fe.Log.Warn("job plan failed", "job", id, "trace", trace, "err", err)
		c.fe.Reject(w, http.StatusBadRequest, err.Error())
		return
	}
	c.fe.Tracer.Record(telemetry.Timed(telemetry.Span{Trace: trace, Job: id, Name: "plan", Runs: p.Header.Runs}, planStart))
	j := newCoordJob(p, c.ring.prefer(p.Key), trace)
	c.jobMu.Lock()
	c.jobs[id] = j
	c.jobMu.Unlock()
	c.fe.JobsAccepted.Add(1)
	c.fe.Log.Debug("job admitted", "job", id, "trace", trace, "runs", p.Header.Runs, "home", j.pref[0].url)

	// The merge runs detached, holding the slot; this handler is just
	// the job's first follower. A first follower that does not reach
	// the trailer abandoned its stream, not the job.
	go c.runJob(j)
	if !c.fe.Follow(w, r, j.header, trace, j.log, 0) {
		c.fe.JobsAbandoned.Add(1)
	}
}

// handleResume re-attaches a client to a job's log. The token is the
// same {job, delivered} shape as asimd's and counts index-ordered
// merged lines; the one difference from asimd is where the log lives:
// in memory, bounded by RetainJobs, so a coordinator restart forgets
// it (shard durability is per-worker).
func (c *Coordinator) handleResume(w http.ResponseWriter, r *http.Request, rr service.ResumeRequest) {
	c.jobMu.Lock()
	j := c.jobs[rr.Job]
	c.jobMu.Unlock()
	if j == nil {
		c.fe.Reject(w, http.StatusNotFound, fmt.Sprintf("unknown job %q (coordinator resume is in-memory and bounded; see -retain-jobs)", rr.Job))
		return
	}
	if rr.Delivered > j.n() {
		c.fe.Reject(w, http.StatusBadRequest, fmt.Sprintf("resume.delivered %d exceeds the job's %d runs", rr.Delivered, j.n()))
		return
	}
	c.fe.JobsResumed.Add(1)
	hdr := j.header
	hdr.Resumed = true
	c.fe.Follow(w, r, hdr, j.trace, j.log, rr.Delivered)
}

// retire enforces the finished-job retention bound: the oldest
// finished jobs fall out of memory once more than RetainJobs have
// completed.
func (c *Coordinator) retire(id string) {
	c.jobMu.Lock()
	defer c.jobMu.Unlock()
	c.finished = append(c.finished, id)
	for len(c.finished) > c.cfg.retainJobs() {
		delete(c.jobs, c.finished[0])
		c.finished = c.finished[1:]
	}
}
