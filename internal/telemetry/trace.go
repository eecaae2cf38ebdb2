// Package telemetry is the dependency-light tracing and metrics core
// shared by asimd and asimcoord: a bounded in-memory span ring with
// Chrome trace_event export, fixed-bucket histograms, the Prometheus
// text exposition derived from a metrics snapshot struct (plus a
// strict format validator used by the e2e suites), and small
// slog/pprof helpers. Everything here is
// stdlib-only and safe for concurrent use.
package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries a job's trace id across the fabric: clients may
// set it on POST /v1/jobs, the coordinator stamps it onto every chunk
// it dispatches to a shard, and both daemons echo it on the response.
// It never appears inside the NDJSON result stream, which stays
// byte-identical with tracing on or off.
const TraceHeader = "X-Asim-Trace"

// Span is one timed event in a job's lifecycle. The coordinator and
// the shards each hold their own ring, correlated by Trace: fetching
// /v1/trace/{id} on any node with either the node-local job id or the
// fabric-wide trace id returns the spans that node recorded.
type Span struct {
	Trace   string `json:"trace"`
	Job     string `json:"job,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"` // wall-clock microseconds since the Unix epoch
	DurUS   int64  `json:"dur_us"`
	Rung    string `json:"rung,omitempty"` // resolved dispatch rung for engine spans
	Shard   string `json:"shard,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Runs    int    `json:"runs,omitempty"`
	Lanes   int    `json:"lanes,omitempty"`
	Cycles  int64  `json:"cycles,omitempty"`
	Cache   string `json:"cache,omitempty"` // "hit" or "miss" on compile spans
	Err     string `json:"err,omitempty"`
}

// Timed stamps sp with a start timestamp and a duration measured from
// start to now, and returns it.
func Timed(sp Span, start time.Time) Span {
	sp.StartUS = start.UnixMicro()
	sp.DurUS = time.Since(start).Microseconds()
	return sp
}

// Tracer is a bounded ring of spans. Recording never blocks beyond a
// short mutex hold and never allocates once the ring is full; when
// the ring wraps, the oldest spans are dropped (Dropped counts them).
// A nil *Tracer is valid and records nothing.
type Tracer struct {
	mu   sync.Mutex
	ring []Span
	next int  // index of the next slot to write
	full bool // ring has wrapped at least once

	dropped atomic.Int64
}

// NewTracer returns a tracer retaining the most recent capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Span, 0, capacity)}
}

// Record appends a span to the ring, evicting the oldest if full.
func (t *Tracer) Record(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.next] = sp
		t.full = true
		t.dropped.Add(1)
	}
	t.next++
	if t.next == cap(t.ring) {
		t.next = 0
	}
	t.mu.Unlock()
}

// Dropped reports how many spans have been evicted from the ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Len reports how many spans the ring currently retains.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Spans returns a copy of the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if t.full {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// ForJob returns the retained spans whose Job or Trace equals id,
// oldest first — so a caller holding only the fabric-wide trace id
// can query a shard without knowing the shard-local job id.
func (t *Tracer) ForJob(id string) []Span {
	if t == nil || id == "" {
		return nil
	}
	var out []Span
	for _, sp := range t.Spans() {
		if sp.Job == id || sp.Trace == id {
			out = append(out, sp)
		}
	}
	return out
}

var traceSeq atomic.Uint64

// NewTraceID returns a fresh 16-hex-char random trace id. If the
// system entropy pool is unavailable it degrades to a process-unique
// sequence rather than failing.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		seq := traceSeq.Add(1)
		for i := range b {
			b[i] = byte(seq >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

type traceKey struct{}

// WithTrace returns a context carrying the trace id, for propagation
// from the HTTP handlers down into the campaign engine.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID extracts the trace id from a context, or "".
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}
