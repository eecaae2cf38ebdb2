package cluster

import (
	"flag"
	"strings"
	"time"

	"repro/internal/service"
)

// Flags is asimcoord's full command-line surface, registered onto a
// FlagSet by RegisterFlags — the same docs_test-enforced pattern as
// service.RegisterFlags for asimd.
type Flags struct {
	service.FrontFlags // the twelve flags shared with asimd, registered once
	Addr               string
	Shards             string
	ChunkRuns          int
	HealthEvery        time.Duration
	HealthTimeout      time.Duration
	HealthFails        int
	ShardInflight      int
	Retries            int
	RetainJobs         int
}

// RegisterFlags declares every asimcoord flag on fs with its default
// and usage text.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	f.Register(fs)
	// Same flags, same defaults as asimd; two read differently on a
	// daemon that merges streams rather than executing jobs.
	fs.Lookup("jobs").Usage = "concurrent merged jobs (0 = default 2)"
	fs.Lookup("write-timeout").Usage = "per-line merged-stream write deadline; a non-reading client's stream fails after this (0 = 30s)"
	fs.StringVar(&f.Addr, "addr", ":8430", "listen address")
	fs.StringVar(&f.Shards, "shards", "", "comma-separated asimd -shard base URLs (required; bare host:port gets http://)")
	fs.IntVar(&f.ChunkRuns, "chunk-runs", 0, "runs per dispatched chunk (0 = default 64)")
	fs.DurationVar(&f.HealthEvery, "health-interval", 0, "period between shard /healthz probes (0 = 2s)")
	fs.DurationVar(&f.HealthTimeout, "health-timeout", 0, "per-probe timeout (0 = 1s)")
	fs.IntVar(&f.HealthFails, "health-fails", 0, "consecutive probe or dispatch failures that mark a shard unhealthy (0 = default 2)")
	fs.IntVar(&f.ShardInflight, "shard-inflight", 0, "chunks streaming from one shard at once; match the shard's -jobs (0 = default 2)")
	fs.IntVar(&f.Retries, "retries", 0, "re-dispatch attempts for a chunk's undelivered runs after a failed stream (0 = default 3)")
	fs.IntVar(&f.RetainJobs, "retain-jobs", 0, "finished jobs kept in memory for resume (0 = default 16)")
	return f
}

// Config assembles the coordinator configuration the flags describe.
func (f *Flags) Config() Config {
	var shards []string
	for _, s := range strings.Split(f.Shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	return Config{
		Shards:         shards,
		Limits:         f.Limits(),
		ChunkRuns:      f.ChunkRuns,
		HealthInterval: f.HealthEvery,
		HealthTimeout:  f.HealthTimeout,
		HealthFails:    f.HealthFails,
		ShardInflight:  f.ShardInflight,
		Retries:        f.Retries,
		RetainJobs:     f.RetainJobs,
		Pprof:          f.Pprof,
	}
}
