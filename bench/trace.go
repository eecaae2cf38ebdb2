package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/telemetry"
)

// span is one benchmark-side timed interval at a layer boundary. Spans
// of one job share Job (the trace id the client minted) and link to
// the span that caused them through Parent:
//
//	job → service.handle | cluster.handle → cluster.chunk → service.handle → durable.append
//
// They are recorded from the benchmark's own files, around the calls
// into each layer; nothing inside the program is edited.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    string `json:"job,omitempty"`
	Name   string `json:"name"`
	// Calls > 0 marks an aggregate of that many calls (durable.append:
	// one span per job, not per record): Dur is their summed busy time.
	Calls   int   `json:"calls,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
	// SelfUS is DurUS minus the part of the interval child spans cover.
	SelfUS int64 `json:"self_us"`

	Start time.Time     `json:"-"`
	Dur   time.Duration `json:"-"`
}

// recorder keeps the traced pass's spans in memory; they are written
// out when the benchmark ends. While off, every wrapper is a single
// atomic load in front of the wrapped call, so one set of servers can
// serve an untraced and a traced pass and the difference between the
// two is the tracing overhead.
type recorder struct {
	on  atomic.Bool
	seq atomic.Int64

	mu      sync.Mutex
	spans   []span
	appends map[string]*span // open durable.append aggregates by store job id
	appendD []float64        // every Append's duration, µs
	dropD   []float64        // every Drop's duration, µs
}

func newRecorder() *recorder { return &recorder{appends: map[string]*span{}} }

func (r *recorder) newID() int64 { return r.seq.Add(1) }

func (r *recorder) add(sp span) {
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// timed records a span around f — the microprobes and the bare-engine
// replay use it so their cost shows in the trace file too.
func (r *recorder) timed(name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	r.add(span{ID: r.newID(), Name: name, Start: start, Dur: d})
	return d
}

func (r *recorder) seams() seams {
	return seams{
		handler:   r.handler,
		store:     func(s durable.Store) durable.Store { return &tracedStore{Store: s, r: r} },
		transport: func(rt http.RoundTripper) http.RoundTripper { return &tracedTransport{rt: rt, r: r} },
	}
}

// handler wraps a server's whole http.Handler: the span is everything
// the server did for one POST /v1/jobs, parented on whoever sent it.
func (r *recorder) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() || req.Method != http.MethodPost {
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		sp := span{ID: r.newID(), Parent: parent, Job: req.Header.Get(telemetry.TraceHeader), Name: layer, Start: time.Now()}
		h.ServeHTTP(w, req)
		sp.Dur = time.Since(sp.Start)
		r.mu.Lock()
		r.spans = append(r.spans, sp)
		// The server names its job in X-Job-Id; that is the id its
		// store appends were made under.
		storeJob := w.Header().Get("X-Job-Id")
		if agg := r.appends[storeJob]; agg != nil {
			delete(r.appends, storeJob)
			agg.ID, agg.Parent, agg.Job = r.newID(), sp.ID, sp.Job
			r.spans = append(r.spans, *agg)
		}
		r.mu.Unlock()
	})
}

// tracedStore counts and times the durable.Store calls on every
// line's critical path.
type tracedStore struct {
	durable.Store
	r *recorder
}

func (s *tracedStore) Append(job string, rec durable.Record) error {
	if !s.r.on.Load() {
		return s.Store.Append(job, rec)
	}
	start := time.Now()
	err := s.Store.Append(job, rec)
	d := time.Since(start)
	r := s.r
	r.mu.Lock()
	agg := r.appends[job]
	if agg == nil {
		agg = &span{Name: "durable.append", Start: start}
		r.appends[job] = agg
	}
	agg.Calls++
	agg.Bytes += int64(len(rec.Data))
	agg.Dur += d
	r.appendD = append(r.appendD, us(d))
	r.mu.Unlock()
	return err
}

func (s *tracedStore) Drop(job string) error {
	if !s.r.on.Load() {
		return s.Store.Drop(job)
	}
	start := time.Now()
	err := s.Store.Drop(job)
	d := time.Since(start)
	s.r.mu.Lock()
	s.r.dropD = append(s.r.dropD, us(d))
	s.r.mu.Unlock()
	return err
}

// tracedTransport sits in cluster.Config.Client: one span per chunk
// dispatch, from the POST leaving the coordinator to the end of the
// shard's response body. It stamps its span id on the request so the
// shard's handler span parents on it.
type tracedTransport struct {
	rt http.RoundTripper
	r  *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.r.on.Load() || req.Method != http.MethodPost {
		return t.rt.RoundTrip(req)
	}
	sp := span{ID: t.r.newID(), Job: req.Header.Get(telemetry.TraceHeader), Name: "cluster.chunk", Start: time.Now()}
	req = req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
	req.Header.Set(spanHeader, strconv.FormatInt(sp.ID, 10))
	resp, err := t.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		sp.Dur = time.Since(sp.Start)
		t.r.add(sp)
	}}
	return resp, nil
}

// spanBody ends its span at the body's EOF, or at Close if the reader
// never got there.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// finish links chunk spans to their job's cluster.handle span, fills
// the microsecond fields and computes every span's self time. It
// returns the spans ordered by start.
func (r *recorder) finish() []span {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, k int) bool { return spans[i].Start.Before(spans[k].Start) })

	coordHandle := map[string]int64{}
	for _, sp := range spans {
		if sp.Name == "cluster.handle" {
			coordHandle[sp.Job] = sp.ID
		}
	}
	children := map[int64][]int{}
	for i := range spans {
		sp := &spans[i]
		if sp.Name == "cluster.chunk" {
			sp.Parent = coordHandle[sp.Job]
		}
		sp.StartUS, sp.DurUS = sp.Start.UnixMicro(), sp.Dur.Microseconds()
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	for i := range spans {
		sp := &spans[i]
		covered := time.Duration(0)
		end := sp.Start.Add(sp.Dur)
		edge := sp.Start // children are in start order: sweep the union
		for _, k := range children[sp.ID] {
			c := spans[k]
			if c.Calls > 0 {
				covered += c.Dur // an aggregate's busy time, not an interval
				continue
			}
			lo, hi := c.Start, c.Start.Add(c.Dur)
			if lo.Before(edge) {
				lo = edge
			}
			if hi.After(end) {
				hi = end
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				edge = hi
			}
		}
		sp.SelfUS = max(0, (sp.Dur - covered).Microseconds())
	}
	return spans
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
