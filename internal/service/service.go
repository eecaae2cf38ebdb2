// Package service is the serving subsystem: a long-running HTTP
// front end over the campaign engine that turns the repo's batch
// throughput stack — compile-once Programs, pooled machines, gang
// execution — into a system under load. Concurrent clients POST
// simulation jobs (a specification source or a named scenario plus
// options) and read per-run results back as NDJSON while the
// campaign is still executing.
//
// Three serving concerns shape the package:
//
//   - Admission control. Jobs run on a bounded set of slots with a
//     bounded wait queue behind them; a client that would overflow the
//     queue gets 429 immediately instead of an unbounded goroutine.
//   - Compilation caching. Every spec job compiles through one shared
//     core.ProgramCache, content-addressed by (canonical-spec digest,
//     backend) — identical designs posted by any number of clients
//     compile exactly once, and the stream's header says whether the
//     job hit. `asimfmt -digest` prints the same digest clients can
//     pre-compute.
//   - Streaming. Results ride campaign.Engine.ExecuteBursts: each
//     dispatch unit's lines — a gang's together, a scalar run's alone
//     — are rendered into one buffer, then written and flushed once,
//     as the unit retires, so a fleet's early finishers are on the
//     wire while late runs still simulate. A trailer line carries the
//     campaign summary.
//
// Endpoints: POST /v1/jobs (NDJSON stream), GET /v1/scenarios,
// GET /v1/trace/{job}, GET /healthz, GET /metrics (JSON counters).
//
// Everything between the socket and "what to do with an admitted job"
// lives in FrontEnd (limits, decoding, admission, the planner, line
// writing) and LineLog (a job's resumable result lines), and is shared
// with package cluster: asimcoord serves the same front end and
// differs only in fanning an admitted plan out instead of executing
// it.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/telemetry"
)

// Config parameterizes a Server. The zero value of every field picks
// a sensible default, so Config{} serves.
type Config struct {
	// Engine executes every job's campaign. The engine is shared by
	// value — engines hold no state between Execute calls — so one
	// configuration (Workers, Chunk, GangSize) governs all jobs.
	Engine campaign.Engine

	// Cache is the shared program cache; nil builds a fresh one.
	Cache *core.ProgramCache

	// Limits is the admission surface shared with asimcoord: job
	// slots and queue, per-job caps, deadlines, the per-line write
	// timeout.
	Limits

	// Store, when non-nil, makes jobs durable: admitted requests,
	// delivered result lines, periodic run checkpoints and completion
	// markers are appended to it, Recover re-admits incomplete jobs
	// after a restart, and clients resume dropped streams with a
	// resume token. Nil (the default) disables durability entirely —
	// no records, no resume.
	Store durable.Store

	// CheckpointCycles is how often, in simulated cycles, an executing
	// run's machine state is checkpointed into Store; <= 0 means
	// 65536. The same period drives streamed checkpoint lines for
	// shard-mode chunk jobs, so a chunk whose runs are all shorter than
	// it streams none (finished runs stream no retirement snapshot; see
	// JobRequest.StreamCheckpoints). Ignored without a Store or
	// ShardMode.
	CheckpointCycles int64

	// ShardMode accepts the cluster fabric's shard protocol
	// (JobRequest.Chunk / StreamCheckpoints / Warm — see their docs):
	// an asimcoord coordinator can dispatch campaign partitions to this
	// server and pull checkpoint state off the stream. Off by default:
	// the protocol exposes machine-state bytes and is meant for a
	// coordinator, not arbitrary clients. asimd's -shard flag sets it.
	ShardMode bool

	// Tracer receives a span for every job phase — admit, compile,
	// execution, and each engine dispatch tagged with its rung — and
	// serves them back at GET /v1/trace/{job}. Nil builds a default
	// bounded ring; tracing never alters the result stream's bytes.
	Tracer *telemetry.Tracer

	// Log is the server's structured logger; nil discards. Job
	// lifecycle events log with job/trace fields at debug and info,
	// failures at warn.
	Log *slog.Logger

	// Pprof mounts net/http/pprof under /debug/pprof/ when set
	// (asimd's -pprof flag). Off by default: profiling endpoints leak
	// implementation detail and belong behind an operator's decision.
	Pprof bool
}

func (c Config) checkpointCycles() int64 { return orDefault(c.CheckpointCycles, 65536) }

// Server is the HTTP serving layer. Create with New; Server is an
// http.Handler, so it mounts under httptest, http.Server or any mux.
type Server struct {
	cfg   Config
	fe    *FrontEnd // decode, admission, deadlines, line writing — shared with asimcoord
	cache *core.ProgramCache
	store durable.Store // nil: durability off
	mux   *http.ServeMux

	// running holds the line log of every store-backed job whose
	// campaign is executing right now — foreground streams and
	// background completions alike — so a resume stream follows its
	// job's results as they are persisted instead of polling the store.
	runMu   sync.Mutex
	running map[string]*LineLog

	jobSeq atomic.Int64
	met    counters
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	fe := NewFrontEnd(cfg.Limits, cfg.Tracer, cfg.Log)
	s := &Server{
		cfg:     cfg,
		fe:      fe,
		cache:   cfg.Cache,
		store:   cfg.Store,
		running: map[string]*LineLog{},
	}
	if s.cache == nil {
		s.cache = core.NewProgramCache()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleJob)
	fe.Mount(s.mux, "asimd_", func() any { return s.Metrics() }, cfg.Pprof)
	return s
}

// Tracer returns the server's span ring (for -trace-out export).
func (s *Server) Tracer() *telemetry.Tracer { return s.fe.Tracer }

// Cache returns the server's shared program cache.
func (s *Server) Cache() *core.ProgramCache { return s.cache }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleJob admits, executes and streams one job. The response is
// NDJSON: a JobHeader line, one RunLine per run in completion order
// (flushed a retirement burst at a time: a gang's lines together, a
// scalar run's alone), and a JobTrailer line with the campaign
// summary. With a durable store configured, the admitted
// request, every delivered result line, periodic checkpoints and the
// completion marker are persisted as the stream runs, so a dropped
// stream can be resumed (see handleResume) and an interrupted
// campaign recovered after restart (see Recover).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	req, ok := s.fe.Decode(w, r)
	if !ok {
		return
	}
	if req.Resume != nil {
		s.handleResume(w, r, *req.Resume)
		return
	}

	// The id is allocated before admission so a queued job can be
	// spilled to the durable store under its final name. Recover
	// advances the sequence past every stored job before traffic is
	// served, so recovered and fresh ids never collide.
	id := fmt.Sprintf("j%d", s.jobSeq.Add(1))
	trace, arrived, ok := s.fe.Admit(w, r, id, func() error { return s.persistAdmit(id, req) })
	if !ok {
		return
	}
	defer s.fe.Release()

	scr := getScratch()
	defer scr.release()
	compileStart := time.Now()
	job, err := s.newJob(id, req, scr)
	if err != nil {
		s.fe.Tracer.Record(telemetry.Timed(telemetry.Span{
			Trace: trace, Job: id, Name: "compile", Err: err.Error()}, compileStart))
		s.fe.Log.Warn("job bad", "job", id, "trace", trace, "err", err)
		s.dropJob(id)
		s.fe.Reject(w, http.StatusBadRequest, err.Error())
		return
	}
	s.fe.Tracer.Record(telemetry.Timed(telemetry.Span{
		Trace: trace, Job: id, Name: "compile", Runs: len(job.runs), Cache: job.header.Cache}, compileStart))
	s.fe.Log.Debug("job admitted", "job", id, "trace", trace, "runs", len(job.runs), "queue_wait", compileStart.Sub(arrived))

	s.fe.JobsAccepted.Add(1)
	if req.Chunk != nil {
		s.met.jobsChunked.Add(1)
	}
	s.fe.JobsActive.Add(1)
	defer s.fe.JobsActive.Add(-1)

	// Only a store-backed job can ever be resumed, so only it keeps a
	// log: without a store lg stays nil and the burst path below
	// carries no follower bookkeeping at all.
	var lg *LineLog
	if s.store != nil {
		lg = NewLineLog(len(job.runs))
		s.runMu.Lock()
		s.running[id] = lg
		s.runMu.Unlock()
		defer s.finishRun(id, lg, errInterrupted)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.fe.Deadline(req.DeadlineMS))
	defer cancel()

	// The trace id rides the response header and the span ring only,
	// never the NDJSON stream.
	out := s.fe.stream(w, id, trace, cancel)
	out.line(job.header)
	sum, execErr := s.execute(telemetry.WithTrace(ctx, trace), id, job.runs, job.idx, out, req.StreamCheckpoints, lg, scr)
	trailer := JobTrailer{Done: true, Summary: sum}
	if execErr != nil {
		trailer.Err = execErr.Error()
	}
	delivered := out.finish(trailer)
	s.fe.JobLatency.ObserveSince(arrived)

	// Everything delivered: the durable record served its purpose.
	if execErr == nil && delivered {
		s.dropJob(id)
	}
}

// execute runs a job's campaign — all of it for a client's stream, the
// unfinished remainder for a background completion (out nil: no client
// attached) — and closes its books. idx, when set, maps the engine's
// run indices to the indices lines, records and checkpoints carry: the
// full campaign's, so a chunk's or a remainder's lines are the
// unchunked, uninterrupted execution's bytes.
//
// Results arrive a dispatch unit at a time, straight from the engine's
// delivery callback: a burst's lines are rendered into one buffer,
// persisted one record per line, then written to the client under one
// deadline and one flush and appended to the job's log in one call.
// Persist-then-write: no line reaches a client or the log before its
// record is stored, so a resume token's delivered count always indexes
// the stored prefix. A cancelled run of a store-backed job is not an
// outcome — it resumes from its checkpoint later — so it is neither
// persisted nor delivered. A line whose record cannot be stored is not
// delivered either, nor is any later line of the job: the campaign is
// interrupted there, without a done record, and a resume or a
// restart's recovery re-executes every run that has no stored result.
//
// The results slice, the per-burst line list and — for a job with no
// log to keep its bytes — the line buffer come from the job's scratch,
// so a steady stream of jobs allocates per burst, not per run.
func (s *Server) execute(ctx context.Context, id string, runs []campaign.Run, idx []int, out *lineWriter, streamCheckpoints bool, lg *LineLog, scr *jobScratch) (campaign.Summary, error) {
	eng := s.cfg.Engine
	eng.Observe = s.observeDispatch(id)
	if s.store != nil || streamCheckpoints {
		ck := &checkpointer{s: s, job: id, runs: runs, idx: idx}
		if streamCheckpoints {
			ck.stream = out
		}
		eng.Checkpoint, eng.CheckpointEvery = ck, s.cfg.checkpointCycles()
	}
	ctx, interrupt := context.WithCancel(ctx)
	defer interrupt()

	var (
		unstored error           // the first result the store refused
		buf      = scr.buf       // the burst's rendered lines, back to back
		lines    = scr.lines[:0] // one slice of buf per line
	)
	t0 := time.Now()
	results, execErr := eng.ExecuteBursts(ctx, runs, scr.results, func(burst []campaign.Result) {
		if unstored != nil {
			return
		}
		if lg != nil || cap(buf) == 0 {
			// A log keeps its lines, so their bytes are never reused;
			// without one, a single buffer serves every burst.
			buf = make([]byte, 0, 128*len(burst))
		}
		buf, lines = buf[:0], lines[:0]
		for _, res := range burst {
			if s.store != nil && errors.Is(res.Err, context.Canceled) {
				continue
			}
			if idx != nil {
				res.Index = idx[res.Index]
			}
			start := len(buf)
			buf = ResultLine(res).appendJSON(buf)
			line := buf[start:len(buf):len(buf)]
			if s.store != nil {
				rec := durable.Record{Kind: durable.KindResult, Run: int64(res.Index), Data: line}
				if err := s.store.Append(id, rec); err != nil {
					unstored = fmt.Errorf("storing run %d's result: %v; %s", res.Index, err, errInterrupted)
					interrupt()
					break
				}
			}
			lines = append(lines, line)
		}
		if len(lines) > 0 {
			out.raw(lines...)
			lg.Append(lines...)
		}
	})
	elapsed := time.Since(t0)
	if unstored != nil {
		execErr = unstored
	}
	scr.results, scr.lines = results, lines
	if lg == nil {
		scr.buf = buf
	}

	sum := campaign.Summarize(results, elapsed)
	s.met.runsTotal.Add(int64(sum.Runs))
	s.met.cyclesTotal.Add(sum.Cycles)
	s.fe.BusyNanos.Add(int64(elapsed))
	outcome, errText := "completed", ""
	switch {
	case execErr == nil:
		s.fe.JobsCompleted.Add(1)
		s.persistDone(id, lg, nil)
	case unstored != nil || errors.Is(execErr, context.Canceled):
		// The client went away mid-stream (or, in the background, the
		// server is shutting down), or a result could not be stored.
		// That is not the job failing — its runs are checkpointed and no
		// completion marker is written, so a resume (or restart
		// recovery) finishes it.
		outcome, errText = "abandoned", execErr.Error()
		if out != nil {
			s.fe.JobsAbandoned.Add(1)
		}
	default:
		// Deadline exceeded or an engine error: the job genuinely
		// finished, unsuccessfully.
		outcome, errText = "failed", execErr.Error()
		s.fe.JobsFailed.Add(1)
		s.persistDone(id, lg, execErr)
	}
	trace := telemetry.TraceID(ctx)
	s.fe.Tracer.Record(telemetry.Timed(telemetry.Span{
		Trace: trace, Job: id, Name: "job", Runs: sum.Runs, Cycles: sum.Cycles, Err: errText}, t0))
	s.fe.Log.Info("job finished", "job", id, "trace", trace, "outcome", outcome, "background", out == nil,
		"runs", sum.Runs, "cycles", sum.Cycles, "elapsed", elapsed)
	return sum, execErr
}

// observeDispatch builds the engine hook for one job: every dispatch
// unit lands on the per-rung meters and in the trace ring as an
// engine span, tagged with the rung it resolved to. The trace id
// comes through the execution context, where handleJob (or a
// coordinator, via the shard protocol) put it.
func (s *Server) observeDispatch(id string) func(context.Context, campaign.Dispatch) {
	return func(ctx context.Context, d campaign.Dispatch) {
		s.met.noteDispatch(d)
		s.fe.Tracer.Record(telemetry.Span{
			Trace: telemetry.TraceID(ctx), Job: id, Name: "engine." + d.Rung,
			StartUS: d.Start.UnixMicro(), DurUS: d.Dur.Microseconds(),
			Rung: d.Rung, Runs: d.Runs, Lanes: d.Runs, Cycles: d.Cycles,
		})
	}
}
