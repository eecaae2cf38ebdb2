// End-to-end telemetry tests over real HTTP: trace spans for a job's
// whole lifecycle (admission, compile, engine dispatches, completion)
// served by /v1/trace, the Prometheus exposition passing the strict
// format validator, and the counter-balance invariant — every admitted
// job is accounted for by exactly one terminal counter, and runs_total
// matches what was actually delivered.
package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/machines"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// getMetrics fetches the JSON metrics snapshot.
func getMetrics(t *testing.T, url string) service.Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m service.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// getTrace fetches /v1/trace/{id} and decodes the NDJSON spans.
func getTrace(t *testing.T, url, id string) (int, []telemetry.Span) {
	t.Helper()
	resp, err := http.Get(url + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	var spans []telemetry.Span
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var sp telemetry.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, spans
}

// spanNames collects the distinct span names present.
func spanNames(spans []telemetry.Span) map[string]int {
	names := map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
	}
	return names
}

// TestServiceTraceSpans: a client-provided X-Asim-Trace id is honored,
// echoed on the response, and indexes the job's full span set — admit,
// compile, rung-tagged engine dispatches, and the job span — via both
// the trace id and the job id.
func TestServiceTraceSpans(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}

	const trace = "feedfacefeedface"
	body := strings.NewReader(`{"spec":` + string(mustJSON(t, src)) + `,"runs":5,"cycles":300}`)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	if got := resp.Header.Get(telemetry.TraceHeader); got != trace {
		t.Errorf("response %s = %q, want the client's %q", telemetry.TraceHeader, got, trace)
	}
	jobID := resp.Header.Get("X-Job-Id")
	if jobID == "" {
		t.Fatal("no X-Job-Id header")
	}
	// Drain the stream so the job finishes and its spans are recorded;
	// the lines themselves must never carry the trace id (byte
	// invariance of the result stream).
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.Contains(sc.Text(), trace) {
			t.Errorf("trace id leaked into the result stream: %s", sc.Text())
		}
	}

	status, spans := getTrace(t, ts.URL, trace)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: status %d", trace, status)
	}
	names := spanNames(spans)
	for _, want := range []string{"admit", "compile", "job"} {
		if names[want] == 0 {
			t.Errorf("no %q span; have %v", want, names)
		}
	}
	engines := 0
	for _, sp := range spans {
		if sp.Trace != trace {
			t.Errorf("span %q has trace %q, want %q", sp.Name, sp.Trace, trace)
		}
		if sp.Job != jobID {
			t.Errorf("span %q has job %q, want %q", sp.Name, sp.Job, jobID)
		}
		if strings.HasPrefix(sp.Name, "engine.") {
			engines++
			if rungIndexOf(sp.Rung) < 0 {
				t.Errorf("engine span has rung %q, not in %v", sp.Rung, campaign.Rungs)
			}
			if sp.Runs <= 0 || sp.Cycles <= 0 {
				t.Errorf("engine span missing books: %+v", sp)
			}
		}
	}
	if engines == 0 {
		t.Error("no engine.* dispatch spans recorded")
	}

	// The job id indexes the same spans as the trace id.
	status, byJob := getTrace(t, ts.URL, jobID)
	if status != http.StatusOK || len(byJob) != len(spans) {
		t.Errorf("GET /v1/trace/%s: status %d, %d spans, want %d", jobID, status, len(byJob), len(spans))
	}
	// Unknown ids are a 404, not an empty stream.
	if status, _ := getTrace(t, ts.URL, "no-such-job"); status != http.StatusNotFound {
		t.Errorf("unknown trace id answered %d, want 404", status)
	}
}

// TestServiceDispatchShapeRepeats: under the daemon's own
// configuration — the one asimd builds from its flags — a job's
// dispatch shape depends on the job alone. The same fleet sent three
// times runs at its program's full gang width every time: one plane
// word on the bit-parallel rung, DefaultGangSize on the lane-loop rung,
// however long the earlier jobs took.
func TestServiceDispatchShapeRepeats(t *testing.T) {
	fs := flag.NewFlagSet("asimd", flag.ContinueOnError)
	flags := service.RegisterFlags(fs)
	if err := fs.Parse([]string{"-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, flags.Config())
	sieve, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		req   service.JobRequest
		rung  string
		lanes int
	}{
		{service.JobRequest{Spec: machines.BitMixSpec(8, 12), Runs: 128, Cycles: 2000},
			campaign.RungBitParallel, campaign.DefaultBitGangSize},
		{service.JobRequest{Spec: sieve, Runs: 64, Cycles: 2000},
			campaign.RungLaneLoop, campaign.DefaultGangSize},
	} {
		for round := 1; round <= 3; round++ {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(mustJSON(t, tc.req)))
			if err != nil {
				t.Fatal(err)
			}
			jobID := resp.Header.Get("X-Job-Id")
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s job %d: status %d, %v", tc.rung, round, resp.StatusCode, err)
			}
			_, spans := getTrace(t, ts.URL, jobID)
			runs := 0
			for _, sp := range spans {
				if !strings.HasPrefix(sp.Name, "engine.") {
					continue
				}
				runs += sp.Runs
				if sp.Name != "engine."+tc.rung || sp.Lanes != tc.lanes {
					t.Errorf("%s job %d: dispatch %s with %d lanes, want every gang %d wide",
						tc.rung, round, sp.Name, sp.Lanes, tc.lanes)
				}
			}
			if runs != tc.req.Runs {
				t.Errorf("%s job %d: engine spans cover %d runs, want %d", tc.rung, round, runs, tc.req.Runs)
			}
		}
	}
}

func rungIndexOf(rung string) int {
	for i, r := range campaign.Rungs {
		if r == rung {
			return i
		}
	}
	return -1
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// asimdFamilies pins every family asimd's exposition serves: name,
// TYPE and label key. Family names are the wire contract dashboards
// and alerts are written against, so a field rename or a changed tag
// that moves one fails here, not in production.
var asimdFamilies = []struct{ name, typ, label string }{
	{"asimd_jobs_accepted_total", "counter", ""},
	{"asimd_jobs_chunked_total", "counter", ""},
	{"asimd_jobs_completed_total", "counter", ""},
	{"asimd_jobs_failed_total", "counter", ""},
	{"asimd_jobs_rejected_total", "counter", ""},
	{"asimd_jobs_abandoned_total", "counter", ""},
	{"asimd_jobs_bad_total", "counter", ""},
	{"asimd_jobs_active", "gauge", ""},
	{"asimd_queue_depth", "gauge", ""},
	{"asimd_jobs_resumed_total", "counter", ""},
	{"asimd_jobs_recovered_total", "counter", ""},
	{"asimd_checkpoints_total", "counter", ""},
	{"asimd_checkpoint_errors_total", "counter", ""},
	{"asimd_runs_total", "counter", ""},
	{"asimd_cycles_total", "counter", ""},
	{"asimd_busy_seconds_total", "counter", ""},
	{"asimd_uptime_seconds", "gauge", ""},
	{"asimd_utilization", "gauge", ""},
	{"asimd_rung_runs_total", "counter", "rung"},
	{"asimd_rung_cycles_total", "counter", "rung"},
	{"asimd_job_latency_seconds", "histogram", "le"},
	{"asimd_queue_wait_seconds", "histogram", "le"},
	{"asimd_write_stall_seconds", "histogram", "le"},
	{"asimd_trace_spans", "gauge", ""},
	{"asimd_trace_dropped_total", "counter", ""},
	{"asimd_cache_hits_total", "counter", ""},
	{"asimd_cache_misses_total", "counter", ""},
	{"asimd_cache_flushes_total", "counter", ""},
	{"asimd_cache_programs", "gauge", ""},
	{"asimd_aot_builds_total", "counter", ""},
	{"asimd_aot_hits_total", "counter", ""},
	{"asimd_aot_fallbacks_total", "counter", ""},
}

// TestServicePrometheusExposition: after real traffic, the ?format=
// prometheus rendering passes the strict line-format validator, keeps
// the declared content type, serves exactly the pinned families, and
// carries every scalar of the JSON snapshot as its sample — each rung
// book as its labeled sample, each histogram as its _count and _sum.
func TestServicePrometheusExposition(t *testing.T) {
	_, ts := newServer(t, service.Config{})
	if status, lines := postJob(t, ts.URL, service.JobRequest{Scenario: "sieve-fleet", Runs: 4, Cycles: 200}); status != http.StatusOK {
		t.Fatalf("job status %d: %v", status, lines)
	}
	postJob(t, ts.URL, service.JobRequest{Spec: "machine broken\n"})
	waitBalanced(t, ts.URL)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("content type %q, want %q", ct, telemetry.ContentType)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	if snap["jobs_accepted"] != 1.0 || snap["runs_total"] != 4.0 || snap["jobs_bad"] != 1.0 {
		t.Errorf("JSON metrics after the traffic: %v", snap)
	}

	types, samples := parseExposition(string(text))
	if len(types) != len(asimdFamilies) {
		t.Errorf("exposition serves %d families, want the %d pinned", len(types), len(asimdFamilies))
	}
	for _, f := range asimdFamilies {
		if types[f.name] != f.typ {
			t.Errorf("family %s has TYPE %q, want %q", f.name, types[f.name], f.typ)
		}
		if !hasSample(samples, f.name, f.label) {
			t.Errorf("family %s has no sample labeled by %q", f.name, f.label)
		}
	}

	rungSample := map[string]string{} // JSON key → its labeled sample
	for _, r := range campaign.Rungs {
		u := strings.ReplaceAll(r, "-", "_")
		rungSample["runs_"+u] = `asimd_rung_runs_total{rung="` + r + `"}`
		rungSample["cycles_"+u] = `asimd_rung_cycles_total{rung="` + r + `"}`
	}
	for key, v := range snap {
		switch key {
		case "uptime_seconds", "utilization": // advance between the two fetches
			continue
		case "cycles_per_s": // JSON-only: a ratio of two exposed counters
			if _, ok := samples["asimd_"+key]; ok {
				t.Errorf("JSON-only %s is exposed", key)
			}
			continue
		}
		name := rungSample[key]
		if name == "" {
			name = "asimd_" + key
		}
		checkSample(t, samples, name, key, v)
	}
}

// parseExposition reads a valid exposition's TYPE lines (family →
// type) and samples (name plus label set as written → value).
func parseExposition(text string) (types, samples map[string]string) {
	types, samples = map[string]string{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
		} else if !strings.HasPrefix(line, "#") {
			i := strings.LastIndexByte(line, ' ')
			samples[line[:i]] = line[i+1:]
		}
	}
	return types, samples
}

// hasSample reports whether family has a sample labeled by exactly
// label ("": unlabeled; "le": a histogram's buckets).
func hasSample(samples map[string]string, family, label string) bool {
	for k := range samples {
		if label == "" && k == family ||
			label == "le" && strings.HasPrefix(k, family+`_bucket{le="`) ||
			label != "" && strings.HasPrefix(k, family+"{"+label+`="`) && strings.Count(k, `="`) == 1 {
			return true
		}
	}
	return false
}

// checkSample requires the JSON value v of key to be the exposition's
// sample name (with _total if it is a counter), or for a histogram its
// name_count and name_sum.
func checkSample(t *testing.T, samples map[string]string, name, key string, v any) {
	t.Helper()
	want := map[string]any{}
	switch v := v.(type) {
	case map[string]any:
		want[name+"_count"], want[name+"_sum"] = v["count"], v["sum"]
	default:
		if _, ok := samples[name]; !ok {
			name += "_total"
		}
		want[name] = v
	}
	for name, v := range want {
		got, ok := samples[name]
		if f, isNum := v.(float64); !ok || !isNum || got != strconv.FormatFloat(f, 'g', -1, 64) {
			t.Errorf("JSON %s = %v, but the exposition's %s is %q (present: %v)", key, v, name, got, ok)
		}
	}
}

// TestServiceCounterBalance: under a randomized concurrent workload —
// valid jobs, malformed jobs, oversubmission into 429s, and clients
// that give up mid-stream — the books balance: every admitted job
// lands in exactly one terminal counter, and in the disconnect-free
// phase runs_total equals the run lines actually delivered.
func TestServiceCounterBalance(t *testing.T) {
	_, ts := newServer(t, service.Config{Limits: service.Limits{MaxConcurrent: 2, MaxQueue: 2}})
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: no disconnects. Everything delivered is counted.
	rng := rand.New(rand.NewSource(71))
	type reqSpec struct {
		req service.JobRequest
		bad bool
	}
	var specs []reqSpec
	for i := 0; i < 24; i++ {
		if rng.Intn(4) == 0 {
			specs = append(specs, reqSpec{req: service.JobRequest{Spec: "machine broken\n"}, bad: true})
			continue
		}
		specs = append(specs, reqSpec{req: service.JobRequest{
			Spec: src, Runs: 1 + rng.Intn(5), Cycles: int64(100 + rng.Intn(300)),
		}})
	}
	var delivered, completedSeen, rejectedSeen, badSeen atomic.Int64
	var wg sync.WaitGroup
	for _, s := range specs {
		wg.Add(1)
		go func(s reqSpec) {
			defer wg.Done()
			status, lines := postJob(t, ts.URL, s.req)
			switch status {
			case http.StatusOK:
				_, raw, _, tr := parseStream(t, lines)
				delivered.Add(int64(len(raw)))
				if tr.Done && tr.Err == "" {
					completedSeen.Add(1)
				}
			case http.StatusTooManyRequests:
				rejectedSeen.Add(1)
			case http.StatusBadRequest:
				badSeen.Add(1)
			default:
				t.Errorf("unexpected status %d: %v", status, lines)
			}
		}(s)
	}
	wg.Wait()

	m := waitBalanced(t, ts.URL)
	if m.JobsAccepted != completedSeen.Load() {
		t.Errorf("accepted %d, clients saw %d completed streams", m.JobsAccepted, completedSeen.Load())
	}
	if m.JobsRejected != rejectedSeen.Load() || m.JobsBad != badSeen.Load() {
		t.Errorf("rejected/bad = %d/%d, clients saw %d/%d",
			m.JobsRejected, m.JobsBad, rejectedSeen.Load(), badSeen.Load())
	}
	if m.RunsTotal != delivered.Load() {
		t.Errorf("runs_total %d, clients received %d run lines", m.RunsTotal, delivered.Load())
	}

	// Phase 2: clients that give up mid-stream. The job lands in the
	// abandoned column and the balance still holds (runs_total may now
	// exceed delivery — executed-but-undelivered runs are real work).
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		body := strings.NewReader(`{"spec":` + string(mustJSON(t, src)) + `,"runs":6,"cycles":2000000}`)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			continue // cancelled before headers; nothing was admitted yet or it was queued-abandoned
		}
		// Read the header line, then walk away.
		bufio.NewReader(resp.Body).ReadString('\n')
		cancel()
		resp.Body.Close()
	}
	waitBalanced(t, ts.URL)
}

// waitBalanced polls /metrics until no job is active or queued and the
// terminal counters sum to the admissions, then returns the snapshot.
func waitBalanced(t *testing.T, url string) service.Metrics {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var m service.Metrics
	for {
		m = getMetrics(t, url)
		if m.JobsActive == 0 && m.QueueDepth == 0 &&
			m.JobsAccepted == m.JobsCompleted+m.JobsFailed+m.JobsAbandoned {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("books never balanced: accepted %d != completed %d + failed %d + abandoned %d (active %d, queued %d)",
				m.JobsAccepted, m.JobsCompleted, m.JobsFailed, m.JobsAbandoned, m.JobsActive, m.QueueDepth)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
