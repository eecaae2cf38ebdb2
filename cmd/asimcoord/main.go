// Command asimcoord is the cluster coordinator: an HTTP daemon over
// internal/cluster that serves the same POST /v1/jobs API as a single
// asimd while sharding each campaign across a static list of
// asimd -shard workers and merging their streams back into one
// exactly-once, index-ordered NDJSON stream.
//
//	asimcoord -shards localhost:8421,localhost:8422
//	asimcoord -addr :9000 -shards 10.0.0.2:8420,10.0.0.3:8420 -chunk-runs 32
//
// Post a job exactly as to asimd and stream the merged results:
//
//	curl -N -d '{"scenario":"sieve-fleet","runs":64}' localhost:8430/v1/jobs
//	curl -N -d "$(jq -Rs '{spec:.,runs:32}' design.sim)" localhost:8430/v1/jobs
//
// Resume a dropped merged stream (in-memory; see -retain-jobs):
//
//	curl -N -d '{"resume":{"job":"c3","delivered":40}}' localhost:8430/v1/jobs
//
// Observe it:
//
//	curl localhost:8430/healthz
//	curl localhost:8430/metrics
//	curl 'localhost:8430/metrics?format=prometheus'
//	curl localhost:8430/v1/shards
package main

import (
	"errors"
	"flag"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the daemon's life; the coordinator's deferred close runs on
// every exit path.
func run() error {
	f := cluster.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		return errors.New("usage: asimcoord [flags]; asimcoord -h lists them")
	}

	logger, err := telemetry.NewLogger(os.Stderr, f.LogLevel, f.LogFormat)
	if err != nil {
		return err
	}

	cfg := f.Config()
	cfg.Log = logger
	coord, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	defer coord.Close()

	if err := f.Serve(f.Addr, coord, coord.Tracer(), logger, "shards", len(cfg.Shards)); err != nil {
		return err
	}
	m := coord.Metrics()
	logger.Info("merged",
		"jobs", m.JobsAccepted, "completed", m.JobsCompleted, "failed", m.JobsFailed,
		"chunks", m.ChunksDispatched, "redispatched", m.ChunksRedispatched, "runs", m.RunsMerged)
	return nil
}
