package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestTracerRingBounds(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Trace: "t", Name: "s", StartUS: int64(i)})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := int64(6 + i); sp.StartUS != want {
			t.Errorf("span %d: StartUS = %d, want %d (oldest-first order)", i, sp.StartUS, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", tr.Dropped())
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want 4", tr.Len())
	}
}

func TestTracerForJobMatchesJobOrTrace(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Span{Trace: "abc", Job: "j1", Name: "a"})
	tr.Record(Span{Trace: "abc", Job: "j2", Name: "b"})
	tr.Record(Span{Trace: "zzz", Job: "j3", Name: "c"})
	if got := len(tr.ForJob("j1")); got != 1 {
		t.Errorf("ForJob(j1) = %d spans, want 1", got)
	}
	if got := len(tr.ForJob("abc")); got != 2 {
		t.Errorf("ForJob(abc) = %d spans, want 2 (trace-id match)", got)
	}
	if got := tr.ForJob("nope"); got != nil {
		t.Errorf("ForJob(nope) = %v, want nil", got)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{Name: "x"})
	if tr.Spans() != nil || tr.ForJob("x") != nil || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer should observe nothing")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(Span{Trace: "t", Name: "s"})
				tr.Spans()
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 64 {
		t.Fatalf("Len = %d, want 64", tr.Len())
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != "" {
		t.Fatal("empty context should carry no trace id")
	}
	ctx = WithTrace(ctx, "deadbeef")
	if got := TraceID(ctx); got != "deadbeef" {
		t.Fatalf("TraceID = %q, want deadbeef", got)
	}
	if WithTrace(context.Background(), "") != context.Background() {
		t.Fatal("WithTrace(\"\") should be a no-op")
	}
}

func TestTimed(t *testing.T) {
	start := time.Now().Add(-time.Second)
	sp := Timed(Span{Name: "x"}, start)
	if sp.StartUS != start.UnixMicro() {
		t.Errorf("StartUS = %d, want %d", sp.StartUS, start.UnixMicro())
	}
	if sp.DurUS < 900_000 {
		t.Errorf("DurUS = %d, want ~1s", sp.DurUS)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	spans := []Span{
		{Trace: "t1", Job: "j1", Name: "job", StartUS: 1000, DurUS: 500, Runs: 4},
		{Trace: "t1", Job: "j1", Name: "engine.scalar", StartUS: 1100, DurUS: 50, Rung: "scalar", Cycles: 99},
		{Trace: "t1", Job: "", Name: "admit", StartUS: 900, DurUS: 0},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var meta, x int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			x++
			if ev["ts"].(float64) < 0 {
				t.Errorf("event %v has negative rebased ts", ev)
			}
			if ev["dur"].(float64) < 1 {
				t.Errorf("event %v has sub-microsecond dur", ev)
			}
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if x != 3 {
		t.Errorf("got %d X events, want 3", x)
	}
	if meta != 2 {
		t.Errorf("got %d thread_name metadata events, want 2 (two distinct trace/job rows)", meta)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram(0.1, 1, 10)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-56.05) > 1e-9 {
		t.Errorf("Sum = %g, want 56.05", s.Sum)
	}
	want := []Bucket{{0.1, 1}, {1, 3}, {10, 4}}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestHistogramBoundaryValuesAreInclusive(t *testing.T) {
	h := NewHistogram(1, 2)
	h.Observe(1) // le="1" is an upper edge: 1 <= 1
	h.Observe(2)
	s := h.Snapshot()
	if s.Buckets[0].N != 1 || s.Buckets[1].N != 2 {
		t.Fatalf("boundary observations landed wrong: %+v", s.Buckets)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBuckets()...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g) * 0.01)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("Count = %d, want 8000", s.Count)
	}
	if math.Abs(s.Sum-(0+1+2+3+4+5+6+7)*0.01*1000) > 1e-6 {
		t.Fatalf("Sum = %g drifted under concurrency", s.Sum)
	}
}

func TestNewHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted bounds")
		}
	}()
	NewHistogram(1, 1)
}

// promRow is one element of promSnapshot's labeled slice.
type promRow struct {
	Name string  `json:"name"`
	Up   bool    `json:"up" prom:"gauge" help:"Row health."`
	Runs int64   `json:"runs" help:"Runs per row."`
	Load float64 `json:"load" prom:"-"`
}

// promBase is embedded in promSnapshot, as JobMetrics is in the
// daemons' snapshots.
type promBase struct {
	JobsAccepted int64   `json:"jobs_accepted" help:"Jobs accepted."`
	BusySeconds  float64 `json:"busy_seconds" help:"Busy time."`
}

// promSnapshot exercises every shape Exposition derives.
type promSnapshot struct {
	promBase
	RunsTotal   int64             `json:"runs_total" help:"Runs."`
	Utilization float64           `json:"utilization" prom:"gauge" help:"Busy ratio."`
	CyclesPerS  float64           `json:"cycles_per_s" prom:"-"`
	RunsAOT     int64             `json:"runs_aot" prom:"rung_runs,rung=aot" help:"Runs per rung."`
	RunsScalar  int64             `json:"runs_scalar" prom:"rung_runs,rung=scalar"`
	Latency     HistogramSnapshot `json:"job_latency_seconds" help:"Job latency."`
	Version     string            `json:"version"`
	Rows        []promRow         `json:"rows" prom:"row=name"`
}

func TestPromWriterPassesOwnValidator(t *testing.T) {
	h := NewHistogram(0.01, 0.1, 1)
	h.Observe(0.05)
	h.Observe(5)
	snap := promSnapshot{
		promBase:    promBase{JobsAccepted: 12, BusySeconds: 1.5},
		RunsTotal:   40,
		Utilization: 0.375,
		CyclesPerS:  9,
		RunsAOT:     100,
		RunsScalar:  3,
		Latency:     h.Snapshot(),
		Version:     "v1",
		Rows:        []promRow{{Name: "http://h1:8422", Up: true, Runs: 7}, {Name: "odd\"label\\x},=\n", Runs: 1}},
	}
	got := string(Exposition("asimd_", snap))
	if err := ValidateExposition([]byte(got)); err != nil {
		t.Fatalf("writer output fails validator: %v\n%s", err, got)
	}
	want := `# HELP asimd_jobs_accepted_total Jobs accepted.
# TYPE asimd_jobs_accepted_total counter
asimd_jobs_accepted_total 12
# HELP asimd_busy_seconds_total Busy time.
# TYPE asimd_busy_seconds_total counter
asimd_busy_seconds_total 1.5
# HELP asimd_runs_total Runs.
# TYPE asimd_runs_total counter
asimd_runs_total 40
# HELP asimd_utilization Busy ratio.
# TYPE asimd_utilization gauge
asimd_utilization 0.375
# HELP asimd_rung_runs_total Runs per rung.
# TYPE asimd_rung_runs_total counter
asimd_rung_runs_total{rung="aot"} 100
asimd_rung_runs_total{rung="scalar"} 3
# HELP asimd_job_latency_seconds Job latency.
# TYPE asimd_job_latency_seconds histogram
asimd_job_latency_seconds_bucket{le="0.01"} 0
asimd_job_latency_seconds_bucket{le="0.1"} 1
asimd_job_latency_seconds_bucket{le="1"} 1
asimd_job_latency_seconds_bucket{le="+Inf"} 2
asimd_job_latency_seconds_sum 5.05
asimd_job_latency_seconds_count 2
# HELP asimd_row_up Row health.
# TYPE asimd_row_up gauge
asimd_row_up{row="http://h1:8422"} 1
asimd_row_up{row="odd\"label\\x},=\n"} 0
# HELP asimd_row_runs_total Runs per row.
# TYPE asimd_row_runs_total counter
asimd_row_runs_total{row="http://h1:8422"} 7
asimd_row_runs_total{row="odd\"label\\x},=\n"} 1
`
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// brokenExpositions are inputs ValidateExposition must reject.
var brokenExpositions = map[string]string{
	"sample without HELP/TYPE": "foo 1\n",
	"TYPE before HELP":         "# TYPE foo counter\n# HELP foo x\nfoo 1\n",
	"TYPE without a type":      "# HELP foo x\n# TYPE foo\nfoo 1\n",
	"negative counter":         "# HELP foo x\n# TYPE foo counter\nfoo -1\n",
	"infinite counter":         "# HELP foo x\n# TYPE foo counter\nfoo +Inf\n",
	"bad metric name":          "# HELP 1foo x\n# TYPE 1foo counter\n1foo 1\n",
	"unparsable value":         "# HELP foo x\n# TYPE foo gauge\nfoo abc\n",
	"family without samples":   "# HELP foo x\n# TYPE foo counter\n",
	"repeated label":           "# HELP foo x\n# TYPE foo gauge\nfoo{a=\"1\",a=\"2\"} 1\n",
	"duplicate series":         "# HELP foo x\n# TYPE foo gauge\nfoo{a=\"1\"} 1\nfoo{a=\"1\"} 2\n",
	"unknown label escape":     "# HELP foo x\n# TYPE foo gauge\nfoo{a=\"\\x\"} 1\n",
	"labels without a comma":   "# HELP foo x\n# TYPE foo gauge\nfoo{a=\"1\"b=\"2\"} 1\n",
	"histogram missing +Inf": "# HELP h x\n# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
	"histogram count mismatch": "# HELP h x\n# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
	"histogram non-monotone": "# HELP h x\n# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
	"histogram edges descend": "# HELP h x\n# TYPE h histogram\n" +
		"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
	"histogram missing sum": "# HELP h x\n# TYPE h histogram\n" +
		"h_bucket{le=\"+Inf\"} 1\nh_count 1\n",
	"histogram NaN edge": "# HELP h x\n# TYPE h histogram\n" +
		"h_bucket{le=\"NaN\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	"histogram bare sample": "# HELP h x\n# TYPE h histogram\n" +
		"h 3\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
}

func TestValidateExpositionRejectsBrokenInput(t *testing.T) {
	for name, input := range brokenExpositions {
		if err := ValidateExposition([]byte(input)); err == nil {
			t.Errorf("%s: validator accepted broken exposition:\n%s", name, input)
		}
	}
}

// FuzzValidateExposition: the validator never panics on arbitrary
// bytes, and whatever counter, gauge and histogram values and label
// strings a snapshot holds, Exposition's rendering of it validates —
// the writer and the validator agree. Seeds are both daemons' live
// expositions (testdata/*.prom, captured after real traffic) and the
// broken-input table.
func FuzzValidateExposition(f *testing.F) {
	seeds, err := filepath.Glob("testdata/*.prom")
	if err != nil || len(seeds) < 2 {
		f.Fatalf("exposition seeds: %v, %v", seeds, err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint64(12), 1.5, 0.375, 0.05, "http://h1:8422")
	}
	for _, input := range brokenExpositions {
		f.Add([]byte(input), uint64(0), 0.0, math.NaN(), math.Inf(1), "odd\"label\\x},=\n")
	}
	f.Fuzz(func(t *testing.T, data []byte, count uint64, seconds, level, obs float64, label string) {
		_ = ValidateExposition(data)

		// A counter is finite and non-negative by definition; every
		// other value goes through as fuzzed.
		if !(seconds >= 0) || math.IsInf(seconds, 1) {
			seconds = 0
		}
		h := NewHistogram(LatencyBuckets()...)
		h.Observe(obs)
		h.Observe(level)
		snap := promSnapshot{
			promBase:    promBase{JobsAccepted: int64(count >> 1), BusySeconds: seconds},
			RunsTotal:   int64(count >> 1),
			Utilization: level,
			CyclesPerS:  obs,
			RunsAOT:     int64(count >> 2),
			Latency:     h.Snapshot(),
			Version:     label,
			Rows:        []promRow{{Name: label, Up: count%2 == 0, Runs: int64(count >> 3)}, {Name: label + "'"}},
		}
		if out := Exposition("x_", snap); ValidateExposition(out) != nil {
			t.Fatalf("rendered exposition fails validation: %v\n%s", ValidateExposition(out), out)
		}
	})
}

func TestValidateExpositionAcceptsMinimal(t *testing.T) {
	ok := "# HELP up 1 if up.\n# TYPE up gauge\nup 1\n"
	if err := ValidateExposition([]byte(ok)); err != nil {
		t.Fatalf("minimal exposition rejected: %v", err)
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("hello", "job", "j1", "trace", "abc")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line does not parse: %v (%q)", err, buf.String())
	}
	if rec["job"] != "j1" || rec["trace"] != "abc" {
		t.Errorf("log line missing fields: %v", rec)
	}

	buf.Reset()
	log, err = NewLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("suppressed")
	if buf.Len() != 0 {
		t.Errorf("info line emitted at warn level: %q", buf.String())
	}
	if !log.Enabled(context.Background(), slog.LevelWarn) {
		t.Error("warn level should be enabled")
	}

	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Error("bad format accepted")
	}
}

func TestRegisterPprof(t *testing.T) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", resp.StatusCode)
	}

	bare := httptest.NewServer(http.NewServeMux())
	defer bare.Close()
	resp2, err := http.Get(bare.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable on a mux that never registered it")
	}
}

func TestPeakRSSBytes(t *testing.T) {
	// On Linux (the only platform CI runs) this must produce a real
	// measurement; elsewhere 0 means "unknown" and is acceptable.
	rss := PeakRSSBytes()
	if rss < 0 {
		t.Fatalf("PeakRSSBytes = %d, want >= 0", rss)
	}
	if rss == 0 {
		t.Log("PeakRSSBytes unavailable on this platform")
	}
}
