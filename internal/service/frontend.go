package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// Limits is the admission surface asimd and asimcoord share: both
// Configs embed it, so each field and its default is declared once.
// The zero value of every field picks the default.
type Limits struct {
	// MaxConcurrent is how many jobs execute (on a coordinator: merge)
	// simultaneously; <= 0 means 2. Each job internally parallelizes
	// across the engine's workers, so a small number of slots
	// saturates the machine.
	MaxConcurrent int

	// MaxQueue is how many admitted jobs may wait for a slot; <= 0
	// means 8. A job past the queue is rejected with 429.
	MaxQueue int

	// MaxRuns caps a single job's run count; <= 0 means 4096.
	MaxRuns int

	// MaxCycles caps a single run's cycle budget; <= 0 means 10^8.
	MaxCycles int64

	// MaxBody caps the request body in bytes; <= 0 means 1 MiB.
	MaxBody int64

	// DefaultDeadline bounds a job that does not ask for a deadline;
	// <= 0 means 60s. MaxDeadline caps what a job may ask for; <= 0
	// means 10m.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// WriteTimeout bounds each stream write — one line, or one burst
	// of lines — and its flush; <= 0 means 30s. A connected client
	// that stops reading fails its next write after this long instead
	// of wedging whatever is delivering it (on asimd an engine worker,
	// and with it a job slot — the job's campaign is cancelled at the
	// same moment). A server-wide http.Server.WriteTimeout would be
	// wrong here — it would kill legitimately long streams.
	WriteTimeout time.Duration
}

func orDefault[T int | int64 | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// withDefaults resolves every unset field to its default.
func (l Limits) withDefaults() Limits {
	return Limits{
		MaxConcurrent:   orDefault(l.MaxConcurrent, 2),
		MaxQueue:        orDefault(l.MaxQueue, 8),
		MaxRuns:         orDefault(l.MaxRuns, 4096),
		MaxCycles:       orDefault(l.MaxCycles, 100_000_000),
		MaxBody:         orDefault(l.MaxBody, 1<<20),
		DefaultDeadline: orDefault(l.DefaultDeadline, 60*time.Second),
		MaxDeadline:     orDefault(l.MaxDeadline, 10*time.Minute),
		WriteTimeout:    orDefault(l.WriteTimeout, 30*time.Second),
	}
}

// DefaultTraceSpans is the trace ring capacity a front end uses when
// the config does not bring its own Tracer.
const DefaultTraceSpans = 8192

// FrontEnd is the job front end asimd and asimcoord both serve from:
// request decoding, the slot → bounded queue → 429 admission gate,
// deadline clamping, NDJSON line writing, log following, and the
// endpoints whose answers do not depend on which daemon is asked.
// What a daemon does with an admitted job — execute it, or fan it out
// — is the daemon's own.
type FrontEnd struct {
	Limits // resolved: every field holds its effective value

	Tracer *telemetry.Tracer
	Log    *slog.Logger
	Start  time.Time

	// The job books both daemons keep, served by JobMetrics. The front
	// end counts what it decides itself (bad, rejected, queue-abandoned
	// requests, queue waits, write stalls); each daemon books the rest
	// where its own job path decides them.
	JobsAccepted  atomic.Int64
	JobsCompleted atomic.Int64
	JobsFailed    atomic.Int64
	JobsRejected  atomic.Int64
	JobsAbandoned atomic.Int64
	JobsBad       atomic.Int64
	JobsResumed   atomic.Int64
	JobsActive    atomic.Int64
	BusyNanos     atomic.Int64
	JobLatency    *telemetry.Histogram
	QueueWait     *telemetry.Histogram
	WriteStall    *telemetry.Histogram

	slots  chan struct{} // running-job slots (capacity MaxConcurrent)
	queued atomic.Int64  // jobs waiting for a slot
}

// NewFrontEnd builds a front end. A nil tracer gets a bounded ring of
// DefaultTraceSpans; a nil logger discards.
func NewFrontEnd(lim Limits, tracer *telemetry.Tracer, log *slog.Logger) *FrontEnd {
	fe := &FrontEnd{
		Limits:     lim.withDefaults(),
		Tracer:     tracer,
		Log:        log,
		Start:      time.Now(),
		JobLatency: telemetry.NewHistogram(telemetry.LatencyBuckets()...),
		QueueWait:  telemetry.NewHistogram(telemetry.LatencyBuckets()...),
		WriteStall: telemetry.NewHistogram(telemetry.LatencyBuckets()...),
	}
	fe.slots = make(chan struct{}, fe.MaxConcurrent)
	if fe.Tracer == nil {
		fe.Tracer = telemetry.NewTracer(DefaultTraceSpans)
	}
	if fe.Log == nil {
		fe.Log = slog.New(slog.DiscardHandler)
	}
	return fe
}

// JobMetrics is the half of /metrics both daemons serve alike: the
// front end's job books. Each daemon's Metrics embeds it, so its JSON
// keys sit at the top level beside the daemon's own. Counters are
// monotonic over the daemon's lifetime; the prom:"gauge" fields are
// not. Each field's help tag is its Prometheus HELP text
// (telemetry.Exposition), one sentence serving both daemons.
type JobMetrics struct {
	JobsAccepted  int64   `json:"jobs_accepted" help:"Jobs admitted to run (after any queueing)."`
	JobsCompleted int64   `json:"jobs_completed" help:"Jobs that finished without error."`
	JobsFailed    int64   `json:"jobs_failed" help:"Jobs that exceeded their deadline, hit an engine error or exhausted chunk retries."`
	JobsRejected  int64   `json:"jobs_rejected" help:"Jobs rejected at admission: 429 (queue full) or 503 (admit record not stored)."`
	JobsAbandoned int64   `json:"jobs_abandoned" help:"Jobs whose client disconnected while queued or mid-stream, or whose stream stopped at a result the store refused."`
	JobsBad       int64   `json:"jobs_bad" help:"Malformed or over-limit requests (400/413)."`
	JobsResumed   int64   `json:"jobs_resumed" help:"Resume streams served."`
	JobsActive    int64   `json:"jobs_active" prom:"gauge" help:"Jobs executing (on asimcoord: merging) right now."`
	QueueDepth    int64   `json:"queue_depth" prom:"gauge" help:"Jobs waiting for a slot."`
	BusySeconds   float64 `json:"busy_seconds" help:"Summed per-job wall-clock time (execution, or asimcoord's merge)."`
	UptimeSeconds float64 `json:"uptime_seconds" prom:"gauge" help:"Seconds since the daemon started."`
	Utilization   float64 `json:"utilization" prom:"gauge" help:"busy_seconds / (uptime x job slots)."`

	JobLatency telemetry.HistogramSnapshot `json:"job_latency_seconds" help:"Full job latency to the trailer: from arrival on asimd, from admission on asimcoord."`
	QueueWait  telemetry.HistogramSnapshot `json:"queue_wait_seconds" help:"Time jobs waited for a slot."`
	WriteStall telemetry.HistogramSnapshot `json:"write_stall_seconds" help:"Stream write+flush time per write: a header or trailer, one retirement burst's run lines (a gang's, or a single run's), or the lines a follower found ready."`

	TraceSpans   int64 `json:"trace_spans" prom:"gauge" help:"Spans retained in the trace ring."`
	TraceDropped int64 `json:"trace_dropped" help:"Spans evicted from the trace ring."`
}

// JobMetrics snapshots the front end's job books.
func (fe *FrontEnd) JobMetrics() JobMetrics {
	m := JobMetrics{
		JobsAccepted:  fe.JobsAccepted.Load(),
		JobsCompleted: fe.JobsCompleted.Load(),
		JobsFailed:    fe.JobsFailed.Load(),
		JobsRejected:  fe.JobsRejected.Load(),
		JobsAbandoned: fe.JobsAbandoned.Load(),
		JobsBad:       fe.JobsBad.Load(),
		JobsResumed:   fe.JobsResumed.Load(),
		JobsActive:    fe.JobsActive.Load(),
		QueueDepth:    fe.queued.Load(),
		BusySeconds:   float64(fe.BusyNanos.Load()) / 1e9,
		UptimeSeconds: time.Since(fe.Start).Seconds(),
		JobLatency:    fe.JobLatency.Snapshot(),
		QueueWait:     fe.QueueWait.Snapshot(),
		WriteStall:    fe.WriteStall.Snapshot(),
		TraceSpans:    int64(fe.Tracer.Len()),
		TraceDropped:  fe.Tracer.Dropped(),
	}
	if capacity := m.UptimeSeconds * float64(fe.MaxConcurrent); capacity > 0 {
		m.Utilization = m.BusySeconds / capacity
	}
	return m
}

// Mount registers the endpoints both daemons answer alike: /healthz,
// /v1/scenarios, /v1/trace/{job} (the path accepts the daemon's own
// job id or a fabric-wide trace id — a coordinator's client holds the
// latter, never the shard-local ids) and /metrics, which serves
// metrics() as JSON, or under ?format=prometheus as the exposition
// telemetry.Exposition derives from it, every family named prefix +
// its JSON key.
func (fe *FrontEnd) Mount(mux *http.ServeMux, prefix string, metrics func() any, pprof bool) {
	mux.HandleFunc("GET /healthz", JSONHandler(func() any { return map[string]string{"status": "ok"} }))
	mux.HandleFunc("GET /v1/scenarios", JSONHandler(scenarioList))
	mux.HandleFunc("GET /v1/trace/{job}", func(w http.ResponseWriter, r *http.Request) {
		spans := fe.Tracer.ForJob(r.PathValue("job"))
		if len(spans) == 0 {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "no spans for that job or trace id"})
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, sp := range spans {
			_ = enc.Encode(sp)
		}
	})
	asJSON := JSONHandler(metrics)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") != "prometheus" {
			asJSON(w, r)
			return
		}
		w.Header().Set("Content-Type", telemetry.ContentType)
		_, _ = w.Write(telemetry.Exposition(prefix, metrics()))
	})
	if pprof {
		telemetry.RegisterPprof(mux)
	}
}

// JSONHandler answers every request with view()'s value as JSON.
func JSONHandler(view func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, http.StatusOK, view()) }
}

func scenarioList() any {
	type scenario struct {
		Name          string `json:"name"`
		Desc          string `json:"desc"`
		FaultCampaign bool   `json:"fault_campaign,omitempty"`
	}
	var out []scenario
	for _, name := range campaign.Names() {
		sc, _ := campaign.Lookup(name)
		out = append(out, scenario{Name: sc.Name, Desc: sc.Desc, FaultCampaign: sc.FaultCampaign})
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Reject answers a request the client got wrong with a JSON error
// body, and counts it.
func (fe *FrontEnd) Reject(w http.ResponseWriter, status int, msg string) {
	fe.JobsBad.Add(1)
	writeJSON(w, status, map[string]string{"error": msg})
}

// decodeJob is the one decoder of a POST /v1/jobs body: unknown
// fields are errors, so a typo cannot silently run a default job.
func decodeJob(body io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// Decode reads a POST /v1/jobs body, answering the client itself
// (and reporting false) when there is no usable request in it. An
// oversized body is its own protocol condition: 413 plus the limit,
// not a generic 400 — the client's fix (shrink or split the job) is
// different from fixing malformed JSON. A resume token's shape is
// checked here too; whether its job exists is the daemon's to say.
func (fe *FrontEnd) Decode(w http.ResponseWriter, r *http.Request) (JobRequest, bool) {
	req, err := decodeJob(http.MaxBytesReader(w, r.Body, fe.MaxBody))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		fe.Reject(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds this server's %d-byte limit", tooBig.Limit))
	case err != nil:
		fe.Reject(w, http.StatusBadRequest, fmt.Sprintf("bad job request: %v", err))
	case req.Resume != nil && (req.Spec != "" || req.Scenario != ""):
		fe.Reject(w, http.StatusBadRequest, "a resume request takes no spec or scenario")
	case req.Resume != nil && req.Resume.Delivered < 0:
		fe.Reject(w, http.StatusBadRequest, "resume.delivered must be non-negative")
	default:
		return req, true
	}
	return req, false
}

// Admit passes one decoded job through the gate: take a slot if one
// is free; otherwise wait in the bounded queue; past the queue, answer
// 429. Admission precedes the expensive half of a job — parsing and
// compiling the spec — so an oversubscribed server answers 429
// promptly and cheaply instead of accumulating compile work it will
// never run. Every job gets a trace id: the client's X-Asim-Trace
// (this is how a coordinator's id reaches shard spans) or a fresh one.
//
// admitted runs once for a job that got past the 429 gate, before the
// job can block in the queue — asimd spills the request to its durable
// store there, so a queued job survives a restart and a rejected one
// never touches disk. An error from it refuses the job with 503,
// before any work, logged and counted as a rejection. When ok, the
// caller holds a slot and owes a Release.
func (fe *FrontEnd) Admit(w http.ResponseWriter, r *http.Request, id string, admitted func() error) (trace string, arrived time.Time, ok bool) {
	arrived = time.Now()
	if trace = r.Header.Get(telemetry.TraceHeader); trace == "" {
		trace = telemetry.NewTraceID()
	}
	select {
	case fe.slots <- struct{}{}:
		if err := admitted(); err != nil {
			<-fe.slots
			fe.refuse(w, id, trace, err)
			return trace, arrived, false
		}
	default:
		if fe.queued.Add(1) > int64(fe.MaxQueue) {
			fe.queued.Add(-1)
			fe.JobsRejected.Add(1)
			fe.Log.Warn("job rejected", "job", id, "trace", trace, "reason", "queue full")
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "queue full"})
			return trace, arrived, false
		}
		if err := admitted(); err != nil {
			fe.queued.Add(-1)
			fe.refuse(w, id, trace, err)
			return trace, arrived, false
		}
		select {
		case fe.slots <- struct{}{}:
			fe.queued.Add(-1)
		case <-r.Context().Done():
			// The client gave up while queued: the job was never
			// executed. (A durable asimd keeps its admit record — a
			// resume or a restart's recovery picks it up from there.)
			fe.queued.Add(-1)
			fe.JobsAbandoned.Add(1)
			return trace, arrived, false
		}
	}
	fe.QueueWait.ObserveSince(arrived)
	fe.Tracer.Record(telemetry.Timed(telemetry.Span{Trace: trace, Job: id, Name: "admit"}, arrived))
	return trace, arrived, true
}

// refuse answers 503 for a job its admitted callback could not take
// on (asimd: the durable store refused the admit record).
func (fe *FrontEnd) refuse(w http.ResponseWriter, id, trace string, err error) {
	fe.JobsRejected.Add(1)
	fe.Log.Warn("job rejected", "job", id, "trace", trace, "reason", "admit failed", "err", err)
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": fmt.Sprintf("job not admitted: %v", err)})
}

// Acquire blocks for a job slot on behalf of work no client is
// waiting on (asimd's background completions).
func (fe *FrontEnd) Acquire() { fe.slots <- struct{}{} }

// Release returns a job slot.
func (fe *FrontEnd) Release() { <-fe.slots }

// Deadline is the bound a job runs under: what it asked for in
// milliseconds (0: the default), capped by MaxDeadline.
func (fe *FrontEnd) Deadline(askedMS int64) time.Duration {
	d := fe.DefaultDeadline
	if askedMS > 0 {
		d = time.Duration(askedMS) * time.Millisecond
	}
	return min(d, fe.MaxDeadline)
}

// Follow streams a job's line log to one client: hdr, the log's
// lines from line `from` on as they land, and the log's trailer. The
// trace id rides a response header only, never the NDJSON. Reports
// whether the stream reached its trailer intact.
func (fe *FrontEnd) Follow(w http.ResponseWriter, r *http.Request, hdr JobHeader, trace string, lg *LineLog, from int) bool {
	out := fe.stream(w, hdr.Job, trace, nil)
	out.line(hdr)
	if _, ended := lg.follow(r.Context(), from, out); !ended {
		return false
	}
	return out.finish(lg.Trailer())
}

// stream starts an NDJSON response for a job.
func (fe *FrontEnd) stream(w http.ResponseWriter, job, trace string, cancel context.CancelFunc) *lineWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-Id", job)
	if trace != "" {
		w.Header().Set(telemetry.TraceHeader, trace)
	}
	return &lineWriter{
		w:       w,
		rc:      http.NewResponseController(w),
		timeout: fe.WriteTimeout,
		cancel:  cancel,
		stall:   fe.WriteStall,
	}
}

// lineWriter writes NDJSON lines, flushing after each write so results
// are on the wire while the campaign still runs; a write is one line
// (a header or trailer), one retirement burst's run lines, or every
// line a log follower found ready. Each write carries a
// deadline: a connected client that stops reading fails the write
// after timeout instead of blocking whoever is delivering it. The
// first error latches and calls cancel (asimd's foreground stream
// cancels the job's campaign — a client that cannot receive results
// should not keep burning a job slot). Writes are serialized by a
// mutex: result bursts arrive through the engine's (already
// serialized) delivery callback, but streamed checkpoint lines come
// concurrently from worker goroutines.
type lineWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	rc      *http.ResponseController
	timeout time.Duration
	cancel  context.CancelFunc   // nil: nothing to cancel
	stall   *telemetry.Histogram // per-write write+flush time
	err     error
}

func (lw *lineWriter) line(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		lw.fail(err)
		return
	}
	lw.raw(data)
}

// raw writes pre-rendered lines (no trailing newlines) under one write
// deadline and one flush — the path a job's retirement bursts take,
// and followers use to replay stored lines byte-identically, a whole
// ready batch at a time. A nil
// lineWriter is a job with no client attached: nothing is written.
func (lw *lineWriter) raw(lines ...[]byte) {
	if lw == nil {
		return
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return
	}
	start := time.Now()
	defer lw.stall.ObserveSince(start)
	// Best-effort: a ResponseWriter without deadline support just
	// writes unbounded.
	_ = lw.rc.SetWriteDeadline(start.Add(lw.timeout))
	for _, data := range lines {
		if _, err := lw.w.Write(data); err != nil {
			lw.failLocked(err)
			return
		}
		if _, err := lw.w.Write(newline); err != nil {
			lw.failLocked(err)
			return
		}
	}
	if err := lw.rc.Flush(); err != nil {
		lw.failLocked(err)
	}
}

// newline ends every line raw writes; shared, so a line's terminator
// is not an allocation of its own.
var newline = []byte{'\n'}

func (lw *lineWriter) fail(err error) {
	if lw == nil {
		return
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.failLocked(err)
}

func (lw *lineWriter) failLocked(err error) {
	if lw.err != nil {
		return
	}
	lw.err = err
	if lw.cancel != nil {
		lw.cancel()
	}
}

// failed reports whether the stream has latched an error.
func (lw *lineWriter) failed() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.err
}

// finish writes the trailer and reports whether every line of the
// stream went out. The per-line write deadline is connection state,
// not request state: left set, it would poison the next request on a
// keep-alive connection once it expires.
func (lw *lineWriter) finish(trailer JobTrailer) bool {
	lw.line(trailer)
	_ = lw.rc.SetWriteDeadline(time.Time{})
	return lw.failed() == nil
}
