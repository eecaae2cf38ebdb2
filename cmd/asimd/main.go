// Command asimd is the simulation job server: a long-running HTTP
// daemon over internal/service that accepts campaign jobs as JSON and
// streams per-run results back as NDJSON while the campaign executes.
// All jobs share one engine configuration and one content-addressed
// program cache, behind bounded admission control.
//
//	asimd                                 (serve on :8420)
//	asimd -addr :9000 -workers 8 -gang 32
//	asimd -jobs 4 -queue 16 -max-cycles 1e9
//	asimd -state-dir /var/lib/asimd       (durable: jobs survive restarts)
//	asimd -aot -aot-dir /var/cache/asimd  (native workers for compiled jobs)
//	asimd -shard -addr :8421              (worker behind an asimcoord coordinator)
//
// Post a job and stream its results:
//
//	curl -N -d '{"scenario":"sieve-fleet","runs":16}' localhost:8420/v1/jobs
//	curl -N -d "$(jq -Rs '{spec:.,runs:8}' design.sim)" localhost:8420/v1/jobs
//
// Resume a dropped stream (with -state-dir): present the job id from
// the header or X-Job-Id plus how many run lines arrived, and the
// remainder replays byte-identically:
//
//	curl -N -d '{"resume":{"job":"j7","delivered":5}}' localhost:8420/v1/jobs
//
// Observe it:
//
//	curl localhost:8420/healthz
//	curl localhost:8420/metrics
//	curl 'localhost:8420/metrics?format=prometheus'
//	curl localhost:8420/v1/scenarios
package main

import (
	"errors"
	"flag"
	"log"
	"os"

	"repro/internal/aot"
	"repro/internal/durable"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the daemon's life; its deferred cleanup — the store's close,
// the temporary AOT cache's removal — runs on every exit path.
func run() error {
	f := service.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		return errors.New("usage: asimd [flags]; asimd -h lists them")
	}

	logger, err := telemetry.NewLogger(os.Stderr, f.LogLevel, f.LogFormat)
	if err != nil {
		return err
	}

	var store durable.Store
	if f.StateDir != "" {
		fs, err := durable.OpenFileStore(f.StateDir)
		if err != nil {
			return err
		}
		defer fs.Close()
		store = fs
	}

	var aotCache *aot.Cache
	if f.AOT {
		dir := f.AOTDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "asimd-aot-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		c, err := aot.NewCache(dir)
		if err != nil {
			return err
		}
		aotCache = c
		logger.Info("aot worker cache ready", "dir", dir, "threshold", f.AOTThreshold)
	}

	cfg := f.Config()
	cfg.Engine.AOT = aotCache
	cfg.Store = store
	cfg.Log = logger
	srv := service.New(cfg)
	if f.Shard {
		logger.Info("shard mode on (accepting coordinator chunk jobs)")
	}

	// Recovery precedes serving: incomplete jobs from the previous
	// process re-admit and finish in the background, and the job id
	// sequence advances past everything in the store.
	if store != nil {
		n, err := srv.Recover()
		if err != nil {
			return err
		}
		if n > 0 {
			logger.Info("recovered interrupted jobs", "n", n, "dir", f.StateDir)
		}
	}

	if err := f.Serve(f.Addr, srv, srv.Tracer(), logger); err != nil {
		return err
	}
	m := srv.Metrics()
	logger.Info("served",
		"jobs", m.JobsAccepted, "completed", m.JobsCompleted, "failed", m.JobsFailed,
		"rejected", m.JobsRejected, "runs", m.RunsTotal, "cycles", m.CyclesTotal)
	return nil
}
