// End-to-end tests of the serving subsystem over real HTTP
// (httptest.Server): stream-vs-batch byte identity, content-addressed
// cache behavior across jobs, admission control under oversubmission,
// deadlines, and the observability endpoints. CI runs these under the
// race detector — concurrent clients share one engine and one program
// cache, which is the whole point of the subsystem.
package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/service"
)

// testEngine is the engine config every test server shares with its
// batch reference runs.
var testEngine = campaign.Engine{Workers: 2, Chunk: 128}

func newServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine.Workers == 0 {
		cfg.Engine = testEngine
	}
	srv := service.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJob POSTs a job and returns the status code and raw body lines.
func postJob(t *testing.T, url string, req service.JobRequest) (int, []string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lines
}

// parseStream splits a 200 response into header, run lines (raw and
// decoded) and trailer.
func parseStream(t *testing.T, lines []string) (service.JobHeader, []string, []service.RunLine, service.JobTrailer) {
	t.Helper()
	if len(lines) < 2 {
		t.Fatalf("stream too short: %d lines", len(lines))
	}
	var hdr service.JobHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header %q: %v", lines[0], err)
	}
	var tr service.JobTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("trailer %q: %v", lines[len(lines)-1], err)
	}
	raw := lines[1 : len(lines)-1]
	runs := make([]service.RunLine, len(raw))
	for i, l := range raw {
		if err := json.Unmarshal([]byte(l), &runs[i]); err != nil {
			t.Fatalf("run line %q: %v", l, err)
		}
	}
	return hdr, raw, runs, tr
}

// TestServiceEndToEnd is the acceptance path: POST a spec job, stream
// NDJSON results, and verify the streamed lines are byte-identical to
// rendering the batch Execute results of the same job.
func TestServiceEndToEnd(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	const runs, cycles = 6, 400
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}

	status, lines := postJob(t, ts.URL, service.JobRequest{Spec: src, Runs: runs, Cycles: cycles})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, lines)
	}
	hdr, raw, _, tr := parseStream(t, lines)
	if hdr.Runs != runs || hdr.Backend != "compiled" || hdr.Cache != "miss" || len(hdr.SpecDigest) != 64 {
		t.Errorf("header: %+v", hdr)
	}
	if len(raw) != runs {
		t.Fatalf("got %d run lines, want %d", len(raw), runs)
	}
	if !tr.Done || tr.Err != "" || tr.Summary.Runs != runs || tr.Summary.Errors != 0 || tr.Summary.Divergences != 0 {
		t.Errorf("trailer: %+v", tr)
	}

	// Batch reference: same spec, same engine config, same fleet
	// shape, rendered through the same ResultLine encoding.
	spec, err := core.ParseString("ref", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := testEngine.Execute(context.Background(), campaign.Fleet("job", prog, runs, cycles))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]string, runs)
	for _, r := range batch {
		data, err := json.Marshal(service.ResultLine(r))
		if err != nil {
			t.Fatal(err)
		}
		want[r.Index] = string(data)
	}
	seen := map[int]bool{}
	for _, l := range raw {
		var rl service.RunLine
		if err := json.Unmarshal([]byte(l), &rl); err != nil {
			t.Fatal(err)
		}
		if seen[rl.Index] {
			t.Fatalf("run %d streamed twice", rl.Index)
		}
		seen[rl.Index] = true
		if l != want[rl.Index] {
			t.Errorf("run %d: streamed line differs from batch:\n stream: %s\n batch:  %s", rl.Index, l, want[rl.Index])
		}
	}
}

// TestServiceCacheHit: an identical second job reports a cache hit in
// its header and increments the shared cache's hit counter; its run
// lines are byte-identical to the first job's.
func TestServiceCacheHit(t *testing.T) {
	srv, ts := newServer(t, service.Config{})
	req := service.JobRequest{Spec: machines.Counter(), Runs: 3, Cycles: 64}

	status, first := postJob(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("first job: status %d", status)
	}
	hdr1, raw1, _, _ := parseStream(t, first)
	if hdr1.Cache != "miss" {
		t.Errorf("first job cache = %q, want miss", hdr1.Cache)
	}
	if m := srv.Metrics(); m.CacheHits != 0 || m.CacheMisses != 1 {
		t.Errorf("after first job: hits=%d misses=%d", m.CacheHits, m.CacheMisses)
	}

	status, second := postJob(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("second job: status %d", status)
	}
	hdr2, raw2, _, _ := parseStream(t, second)
	if hdr2.Cache != "hit" {
		t.Errorf("second job cache = %q, want hit", hdr2.Cache)
	}
	if hdr2.SpecDigest != hdr1.SpecDigest {
		t.Errorf("digests differ across identical jobs: %s vs %s", hdr1.SpecDigest, hdr2.SpecDigest)
	}
	if m := srv.Metrics(); m.CacheHits != 1 || m.CacheMisses != 1 || m.CachePrograms != 1 {
		t.Errorf("after second job: hits=%d misses=%d programs=%d", m.CacheHits, m.CacheMisses, m.CachePrograms)
	}

	// Determinism across jobs: identical content, identical lines.
	sortLines := func(raw []string) string { // index order via decode
		byIdx := map[int]string{}
		for _, l := range raw {
			var rl service.RunLine
			if err := json.Unmarshal([]byte(l), &rl); err != nil {
				t.Fatal(err)
			}
			byIdx[rl.Index] = l
		}
		var b strings.Builder
		for i := 0; i < len(raw); i++ {
			b.WriteString(byIdx[i])
			b.WriteByte('\n')
		}
		return b.String()
	}
	if sortLines(raw1) != sortLines(raw2) {
		t.Error("identical jobs streamed different run lines")
	}

	// The header's digest is the client-computable cache key half —
	// exactly Spec.CanonicalDigest (what asimfmt -digest prints).
	spec, err := core.ParseString("x", machines.Counter())
	if err != nil {
		t.Fatal(err)
	}
	if hdr1.SpecDigest != spec.CanonicalDigest() {
		t.Errorf("header digest %s != canonical digest %s", hdr1.SpecDigest, spec.CanonicalDigest())
	}
}

// TestServiceScenarioJob: named scenarios run through the same stream.
func TestServiceScenarioJob(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	status, lines := postJob(t, ts.URL, service.JobRequest{Scenario: "sieve-fleet", Runs: 3, Cycles: 300})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, lines)
	}
	hdr, raw, _, tr := parseStream(t, lines)
	if hdr.Scenario != "sieve-fleet" || hdr.Runs != 3 || len(raw) != 3 {
		t.Errorf("header %+v, %d lines", hdr, len(raw))
	}
	if !tr.Done || tr.Summary.Divergences != 0 || tr.Summary.Errors != 0 {
		t.Errorf("trailer %+v", tr)
	}
}

// TestServiceBadJobs: every request the planner refuses (the one
// table, service.BadRequests) is a 400 with a JSON error naming the
// reason, and is counted, not executed.
func TestServiceBadJobs(t *testing.T) {
	srv, ts := newServer(t, service.Config{Limits: service.BadRequestLimits})
	for _, bad := range service.BadRequests {
		status, lines := postJob(t, ts.URL, bad.Req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", bad.Name, status, lines)
		}
		if body := fmt.Sprint(lines); !strings.Contains(body, bad.Want) {
			t.Errorf("%s: error does not say %q: %v", bad.Name, bad.Want, lines)
		}
	}
	if m := srv.Metrics(); m.JobsBad != int64(len(service.BadRequests)) || m.JobsAccepted != 0 {
		t.Errorf("metrics: bad=%d accepted=%d", m.JobsBad, m.JobsAccepted)
	}
	// Garbage backend strings must not grow the never-evicted cache.
	if m := srv.Metrics(); m.CachePrograms != 0 {
		t.Errorf("bad jobs left %d cache entries", m.CachePrograms)
	}
}

// slowJob is a request that cannot finish on its own within the test:
// the naive interpreter on a hefty cycle budget. Cancelling the
// request context is what ends it.
func slowJob() service.JobRequest {
	return service.JobRequest{
		Spec:       machines.Counter(),
		Backend:    "interp-naive",
		Cycles:     50_000_000,
		DeadlineMS: 60_000,
	}
}

// startJob POSTs a job on a cancellable context and returns once
// response headers (or an error) arrive.
func startJob(t *testing.T, ts *httptest.Server, req service.JobRequest) (cancel func(), wait func() int) {
	t.Helper()
	ctx, cancelCtx := context.WithCancel(context.Background())
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status := make(chan int, 1)
	go func() {
		hr, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			status <- -1
			return
		}
		resp, err := ts.Client().Do(hr)
		if err != nil {
			status <- -1
			return
		}
		code := resp.StatusCode
		// Drain until the context cancels the transfer.
		buf := make([]byte, 4096)
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				break
			}
		}
		resp.Body.Close()
		status <- code
	}()
	return cancelCtx, func() int { return <-status }
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceQueueFull is the deterministic backpressure test: with
// one slot and a one-job queue, the third concurrent job is rejected
// with 429 while the first two are still in flight.
func TestServiceQueueFull(t *testing.T) {
	srv, ts := newServer(t, service.Config{
		Engine: campaign.Engine{Workers: 1, Chunk: 64},
		Limits: service.Limits{MaxConcurrent: 1, MaxQueue: 1},
	})

	cancelA, waitA := startJob(t, ts, slowJob())
	waitFor(t, "job A active", func() bool { return srv.Metrics().JobsActive == 1 })

	cancelB, waitB := startJob(t, ts, slowJob())
	waitFor(t, "job B queued", func() bool { return srv.Metrics().QueueDepth == 1 })

	status, lines := postJob(t, ts.URL, slowJob())
	if status != http.StatusTooManyRequests {
		t.Fatalf("oversubmitted job: status %d, want 429 (%v)", status, lines)
	}
	if m := srv.Metrics(); m.JobsRejected != 1 {
		t.Errorf("jobs_rejected = %d, want 1", m.JobsRejected)
	}

	cancelA()
	cancelB()
	waitA()
	waitB()
	waitFor(t, "drain", func() bool {
		m := srv.Metrics()
		return m.JobsActive == 0 && m.QueueDepth == 0
	})
}

// TestServiceConcurrentJobs is the load-shaped acceptance test, run
// under -race in CI: many concurrent clients against a small slot +
// queue budget. Every request either completes with a full, correct
// stream or is rejected 429; nothing wedges, and the books balance.
func TestServiceConcurrentJobs(t *testing.T) {
	srv, ts := newServer(t, service.Config{
		Engine: campaign.Engine{Workers: 2, Chunk: 128},
		Limits: service.Limits{MaxConcurrent: 2, MaxQueue: 2},
	})
	src, err := machines.SieveSpec(18)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 12
	var wg sync.WaitGroup
	type outcome struct {
		status int
		lines  []string
	}
	outcomes := make([]outcome, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, lines := postJob(t, ts.URL, service.JobRequest{Spec: src, Runs: 4, Cycles: 500})
			outcomes[i] = outcome{status, lines}
		}(i)
	}
	wg.Wait()

	completed, rejected := 0, 0
	var wantLines string
	for i, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			completed++
			hdr, raw, _, tr := parseStream(t, o.lines)
			if len(raw) != 4 || !tr.Done || tr.Err != "" || tr.Summary.Errors != 0 || tr.Summary.Divergences != 0 {
				t.Errorf("client %d: header %+v trailer %+v (%d lines)", i, hdr, tr, len(raw))
			}
			sorted := sortedRunLines(t, raw)
			if wantLines == "" {
				wantLines = sorted
			} else if sorted != wantLines {
				t.Errorf("client %d streamed different results for the identical job", i)
			}
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("client %d: unexpected status %d: %v", i, o.status, o.lines)
		}
	}
	if completed+rejected != clients || completed == 0 {
		t.Errorf("completed=%d rejected=%d of %d", completed, rejected, clients)
	}
	m := srv.Metrics()
	if int(m.JobsCompleted) != completed || int(m.JobsRejected) != rejected {
		t.Errorf("metrics completed=%d rejected=%d, observed %d/%d", m.JobsCompleted, m.JobsRejected, completed, rejected)
	}
	if m.JobsActive != 0 || m.QueueDepth != 0 {
		t.Errorf("gauges not drained: active=%d queued=%d", m.JobsActive, m.QueueDepth)
	}
	if m.CacheMisses != 1 || int(m.CacheHits) != completed-1 {
		t.Errorf("cache hits=%d misses=%d for %d completed identical jobs", m.CacheHits, m.CacheMisses, completed)
	}
	if m.RunsTotal != int64(4*completed) {
		t.Errorf("runs_total = %d, want %d", m.RunsTotal, 4*completed)
	}
}

func sortedRunLines(t *testing.T, raw []string) string {
	t.Helper()
	byIdx := map[int]string{}
	for _, l := range raw {
		var rl service.RunLine
		if err := json.Unmarshal([]byte(l), &rl); err != nil {
			t.Fatal(err)
		}
		byIdx[rl.Index] = l
	}
	var b strings.Builder
	for i := 0; i < len(raw); i++ {
		b.WriteString(byIdx[i])
		b.WriteByte('\n')
	}
	return b.String()
}

// TestServiceDeadline: a job whose deadline expires mid-flight still
// streams a complete response — every run line present (late ones
// carrying the deadline error) plus a trailer that reports the
// failure — and counts as a failed job.
func TestServiceDeadline(t *testing.T) {
	srv, ts := newServer(t, service.Config{Engine: campaign.Engine{Workers: 1, Chunk: 64}})
	req := slowJob()
	req.Runs = 4
	req.DeadlineMS = 150
	status, lines := postJob(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	_, raw, runs, tr := parseStream(t, lines)
	if len(raw) != 4 {
		t.Fatalf("got %d run lines, want all 4 delivered", len(raw))
	}
	errored := 0
	for _, r := range runs {
		if r.Err != "" {
			errored++
		}
	}
	if errored == 0 || !tr.Done || tr.Err == "" {
		t.Errorf("deadline left no trace: %d errored runs, trailer %+v", errored, tr)
	}
	if m := srv.Metrics(); m.JobsFailed != 1 || m.JobsCompleted != 0 {
		t.Errorf("metrics failed=%d completed=%d", m.JobsFailed, m.JobsCompleted)
	}
}

// TestServiceEndpoints: healthz, metrics and scenarios respond.
func TestServiceEndpoints(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v %v", resp, err)
	}
	var m service.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/scenarios")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scenarios: %v %v", resp, err)
	}
	var scs []struct{ Name, Desc string }
	if err := json.NewDecoder(resp.Body).Decode(&scs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	names := map[string]bool{}
	for _, sc := range scs {
		names[sc.Name] = true
	}
	for _, want := range []string{"sieve-fleet", "tiny-divide-faults"} {
		if !names[want] {
			t.Errorf("scenario %q missing from listing (%v)", want, names)
		}
	}

	// Wrong method on the job endpoint.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs: status %d, want 405", resp.StatusCode)
	}
}

// TestServiceStreamsIncrementally: with one worker and several runs,
// the first run line must arrive while the campaign is still
// executing — before the trailer exists. This is the wire-level form
// of campaign.TestExecuteStreamTimely.
func TestServiceStreamsIncrementally(t *testing.T) {
	_, ts := newServer(t, service.Config{Engine: campaign.Engine{Workers: 1, Chunk: 64, GangSize: 1}})
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(service.JobRequest{Spec: src, Runs: 6, Cycles: 4000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var stamps []time.Time
	for sc.Scan() {
		stamps = append(stamps, time.Now())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 8 { // header + 6 runs + trailer
		t.Fatalf("got %d lines, want 8", len(stamps))
	}
	first, last := stamps[1], stamps[len(stamps)-1]
	if !first.Before(last) {
		t.Error("run lines arrived in one burst; stream is not incremental")
	}
}

// TestServiceSlowReader: a connected client that stops reading must
// not wedge the server. The per-line write deadline fails the stream,
// which cancels the job's campaign, releases the slot, and leaves the
// gauges clean — all while the client still holds its connection open.
func TestServiceSlowReader(t *testing.T) {
	srv, ts := newServer(t, service.Config{
		Engine: campaign.Engine{Workers: 1, Chunk: 64},
		Limits: service.Limits{MaxConcurrent: 1, MaxRuns: 40000, WriteTimeout: 200 * time.Millisecond},
	})
	// Enough run lines (~40000 × ~110 bytes) to overflow any socket
	// buffering between server and a non-reading client.
	body, err := json.Marshal(service.JobRequest{Spec: machines.Counter(), Runs: 40000, Cycles: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Read nothing. The handler must still finish on its own. A job
	// whose client stopped reading is abandoned — the campaign was
	// cancelled for the client's sake, not failed on its own terms —
	// though a race against the last line can also complete it.
	waitFor(t, "handler to finish despite unread stream", func() bool {
		m := srv.Metrics()
		return m.JobsActive == 0 && m.JobsCompleted+m.JobsAbandoned == 1
	})
	if m := srv.Metrics(); m.JobsFailed != 0 {
		t.Errorf("client disconnect counted as job failure: failed=%d", m.JobsFailed)
	}
}

// TestServiceKeepAliveAfterStream: the per-line write deadline is
// cleared when a stream ends, so a later request on the same
// keep-alive connection — after the deadline would have expired —
// still gets its response.
func TestServiceKeepAliveAfterStream(t *testing.T) {
	_, ts := newServer(t, service.Config{Limits: service.Limits{WriteTimeout: 50 * time.Millisecond}})
	status, _ := postJob(t, ts.URL, service.JobRequest{Spec: machines.Counter(), Cycles: 32})
	if status != http.StatusOK {
		t.Fatalf("job status %d", status)
	}
	// postJob drains the body, so ts.Client() pools the connection;
	// sleep past the write deadline, then reuse it.
	time.Sleep(150 * time.Millisecond)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("keep-alive request after stream: %v", err)
	}
	defer resp.Body.Close()
	var m service.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics after stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK || m.JobsCompleted != 1 {
		t.Errorf("status %d, completed %d", resp.StatusCode, m.JobsCompleted)
	}
}

// TestServiceOneWritePerBurst: a job's run lines go out one retirement
// burst at a time — one write and one flush per engine dispatch unit —
// so a store-less 256-run job raises the write-stall histogram by its
// engine span count plus the header and the trailer, not once per run.
func TestServiceOneWritePerBurst(t *testing.T) {
	srv, ts := newServer(t, service.Config{})
	before := srv.Metrics().WriteStall.Count
	status, lines := postJob(t, ts.URL, service.JobRequest{Spec: machines.Counter(), Runs: 256, Cycles: 50})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	hdr, raw, _, tr := parseStream(t, lines)
	if len(raw) != 256 || tr.Err != "" {
		t.Fatalf("stream: %d run lines, trailer error %q", len(raw), tr.Err)
	}
	// The trailer's write is booked after the client has read it.
	waitFor(t, "handler to finish", func() bool { return srv.Metrics().JobsActive == 0 })
	units := 0
	for _, sp := range srv.Tracer().ForJob(hdr.Job) {
		if strings.HasPrefix(sp.Name, "engine.") {
			units++
		}
	}
	if units == 0 || units == len(raw) {
		t.Fatalf("%d engine spans for %d runs; the job formed no gang", units, len(raw))
	}
	if writes := srv.Metrics().WriteStall.Count - before; writes != int64(units)+2 {
		t.Errorf("%d stream writes, want %d (one per engine span, plus header and trailer)", writes, units+2)
	}
}
