package service

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// FrontFlags is the command-line surface asimd and asimcoord share:
// the front end's limits plus the observability switches. Both
// daemons' Flags embed it, so the twelve flags are registered once.
type FrontFlags struct {
	Jobs         int
	Queue        int
	MaxRuns      int
	MaxCycles    int64
	Deadline     time.Duration
	MaxDeadline  time.Duration
	MaxBody      int64
	WriteTimeout time.Duration
	Pprof        bool
	TraceOut     string
	LogLevel     string
	LogFormat    string
}

// Register declares the shared flags on fs.
func (f *FrontFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Jobs, "jobs", 0, "concurrent job slots (0 = default 2)")
	fs.IntVar(&f.Queue, "queue", 0, "jobs allowed to wait for a slot before 429 (0 = default 8)")
	fs.IntVar(&f.MaxRuns, "max-runs", 0, "per-job run cap (0 = default 4096)")
	fs.Int64Var(&f.MaxCycles, "max-cycles", 0, "per-run cycle cap (0 = default 1e8)")
	fs.DurationVar(&f.Deadline, "deadline", 0, "default per-job deadline (0 = 60s)")
	fs.DurationVar(&f.MaxDeadline, "max-deadline", 0, "cap on requested per-job deadlines (0 = 10m)")
	fs.Int64Var(&f.MaxBody, "max-body", 0, "request body cap in bytes (0 = 1 MiB)")
	fs.DurationVar(&f.WriteTimeout, "write-timeout", 0, "per-line stream write deadline; a non-reading client fails after this (0 = 30s)")
	fs.BoolVar(&f.Pprof, "pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the retained trace spans as Chrome trace_event JSON to this file on shutdown (open in chrome://tracing or Perfetto)")
	fs.StringVar(&f.LogLevel, "log-level", "info", "structured log level: debug, info, warn or error")
	fs.StringVar(&f.LogFormat, "log-format", "text", "structured log format: text or json")
}

// Limits assembles the front-end limits the flags describe.
func (f *FrontFlags) Limits() Limits {
	return Limits{
		MaxConcurrent:   f.Jobs,
		MaxQueue:        f.Queue,
		MaxRuns:         f.MaxRuns,
		MaxCycles:       f.MaxCycles,
		MaxBody:         f.MaxBody,
		DefaultDeadline: f.Deadline,
		MaxDeadline:     f.MaxDeadline,
		WriteTimeout:    f.WriteTimeout,
	}
}

// Serve is both daemons' serve loop: it serves h on addr until SIGINT
// or SIGTERM, then drains — stops accepting, lets streaming jobs finish
// for up to 30 s (they are deadline-bounded anyway) — and writes tr's
// retained spans to TraceOut when set. It returns the listener's or
// the drain's error rather than exiting, so the caller's deferred
// cleanup still runs. attrs ride the "serving" log line after addr.
func (f *FrontFlags) Serve(addr string, h http.Handler, tr *telemetry.Tracer, log *slog.Logger, attrs ...any) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return f.serve(ctx, addr, h, tr, log, attrs...)
}

// serve is Serve until ctx ends instead of until a signal.
func (f *FrontFlags) serve(ctx context.Context, addr string, h http.Handler, tr *telemetry.Tracer, log *slog.Logger, attrs ...any) error {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Info("serving", append(append([]any{"addr", addr}, attrs...), "pprof", f.Pprof)...)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Info("draining")
	drain, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if f.TraceOut != "" {
		if err := writeTrace(f.TraceOut, tr); err != nil {
			log.Error("trace export failed", "path", f.TraceOut, "err", err)
		} else {
			log.Info("trace exported", "path", f.TraceOut, "spans", tr.Len())
		}
	}
	return nil
}

// writeTrace writes the retained span ring as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto.
func writeTrace(path string, tr *telemetry.Tracer) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(out, tr.Spans()); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Flags is asimd's full command-line surface, registered onto a
// FlagSet by RegisterFlags. Keeping the definitions here — not in
// package main — lets docs_test verify that docs/OPERATIONS.md covers
// every flag and that its command-line snippets use only flags that
// exist, without shelling out to a built binary.
type Flags struct {
	FrontFlags
	Addr             string
	Workers          int
	Chunk            int64
	Gang             int
	StateDir         string
	CheckpointCycles int64
	AOT              bool
	AOTDir           string
	AOTThreshold     int64
	Shard            bool
}

// RegisterFlags declares every asimd flag on fs with its default and
// usage text. Command asimd parses these straight into its Config;
// docs_test walks the same registrations to enforce the operations
// doc.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	f.Register(fs)
	fs.StringVar(&f.Addr, "addr", ":8420", "listen address")
	fs.IntVar(&f.Workers, "workers", 0, "engine worker goroutines per job (0 = GOMAXPROCS)")
	fs.Int64Var(&f.Chunk, "chunk", 0, "cycle granularity of cancellation checks (0 = engine default)")
	fs.IntVar(&f.Gang, "gang", 0, "gang width for lockstep execution (0 = per program: 64 lanes for bit-parallel programs, 32 otherwise; 1: every run a one-lane gang)")
	fs.StringVar(&f.StateDir, "state-dir", "", "durable job store directory; jobs survive restarts and dropped streams resume (empty = durability off)")
	fs.Int64Var(&f.CheckpointCycles, "checkpoint-cycles", 0, "cycles between run state checkpoints, persisted to -state-dir and/or streamed to a coordinator (0 = default 65536)")
	fs.BoolVar(&f.AOT, "aot", false, "run compiled jobs above -aot-threshold in ahead-of-time native workers (compiled-aot is an alias of compiled)")
	fs.StringVar(&f.AOTDir, "aot-dir", "", "worker binary cache directory (default: a per-process temp dir)")
	fs.Int64Var(&f.AOTThreshold, "aot-threshold", campaign.DefaultAOTThreshold, "campaign cycles x runs below which compiled jobs stay in-process (0 = always use workers)")
	fs.BoolVar(&f.Shard, "shard", false, "accept the cluster shard protocol (chunk-scoped jobs with streamed checkpoints) from an asimcoord coordinator")
	return f
}

// Config assembles the service configuration the flags describe. The
// AOT cache is the caller's to build (it may need a temp dir); the
// engine's AOT fields are left for the caller to fill alongside it.
func (f *Flags) Config() Config {
	return Config{
		Engine:           campaign.Engine{Workers: f.Workers, Chunk: f.Chunk, GangSize: f.Gang, AOTThreshold: f.AOTThreshold},
		Limits:           f.Limits(),
		CheckpointCycles: f.CheckpointCycles,
		ShardMode:        f.Shard,
		Pprof:            f.Pprof,
	}
}
