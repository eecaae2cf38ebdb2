// End-to-end telemetry across the fabric: one trace id covering the
// coordinator's admit/plan/chunk/job spans AND the shards' own
// admit/compile/engine spans, queryable from every node by that one
// id; and the Prometheus expositions of both tiers passing the strict
// format validator, with per-shard labeled series on the coordinator.
package cluster_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/machines"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// getSpans fetches /v1/trace/{id} from any node and decodes the
// NDJSON spans; a 404 returns nil (that node saw nothing of the job).
func getSpans(t *testing.T, url, id string) []telemetry.Span {
	t.Helper()
	resp, err := http.Get(url + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/v1/trace/%s: status %d", url, id, resp.StatusCode)
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
	return spans
}

// TestClusterTraceCoherence: a job posted to a two-shard cluster under
// a client-chosen trace id yields one coherent story — the coordinator
// records admit, plan, per-attempt chunk spans naming real shards, and
// the job span; the shards record their halves (admission, compile,
// rung-tagged engine dispatches) under the SAME id, reachable on each
// shard by that fabric-wide id even though shard-local job ids differ.
func TestClusterTraceCoherence(t *testing.T) {
	sh1, sh2 := newShardServer(t), newShardServer(t)
	coord := newCoordServer(t, cluster.Config{
		Shards:    []string{sh1.URL, sh2.URL},
		ChunkRuns: 4,
	})
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}

	const trace = "cafef00dcafef00d"
	body, err := json.Marshal(service.JobRequest{Spec: src, Runs: 12, Cycles: 300})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, coord.URL+"/v1/jobs", strings.NewReader(string(body)))
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
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.Contains(sc.Text(), trace) {
			t.Errorf("trace id leaked into the merged stream: %s", sc.Text())
		}
		lines = append(lines, sc.Text())
	}
	if _, raw, tr := parseMerged(t, lines); len(raw) != 12 || !tr.Done || tr.Err != "" {
		t.Fatalf("merged stream: %d lines, trailer %+v", len(raw), tr)
	}

	// Coordinator's half, by trace id and equivalently by job id.
	coordSpans := getSpans(t, coord.URL, trace)
	if len(coordSpans) == 0 {
		t.Fatal("coordinator retained no spans for the trace")
	}
	if byJob := getSpans(t, coord.URL, jobID); len(byJob) != len(coordSpans) {
		t.Errorf("job id %q indexes %d spans, trace id %d", jobID, len(byJob), len(coordSpans))
	}
	names := map[string]int{}
	shardSet := map[string]bool{sh1.URL: true, sh2.URL: true}
	chunkRuns := 0
	for _, sp := range coordSpans {
		if sp.Trace != trace {
			t.Errorf("coordinator span %q has trace %q", sp.Name, sp.Trace)
		}
		names[sp.Name]++
		if sp.Name == "chunk" {
			chunkRuns += sp.Runs
			if !shardSet[sp.Shard] {
				t.Errorf("chunk span names unknown shard %q", sp.Shard)
			}
			if sp.Attempt < 1 {
				t.Errorf("chunk span without an attempt: %+v", sp)
			}
		}
	}
	for _, want := range []string{"admit", "plan", "chunk", "job"} {
		if names[want] == 0 {
			t.Errorf("coordinator recorded no %q span; have %v", want, names)
		}
	}
	if names["chunk"] != 3 || chunkRuns != 12 {
		t.Errorf("chunk spans cover %d runs in %d spans, want 12 in 3 (12 runs / chunk-runs 4)",
			chunkRuns, names["chunk"])
	}

	// The shards' halves, fetched by the SAME fabric-wide id. Between
	// them they must hold the engine's rung-tagged dispatch spans for
	// every run.
	engineRuns, shardJobs := 0, 0
	for _, sh := range []*httptest.Server{sh1, sh2} {
		for _, sp := range getSpans(t, sh.URL, trace) {
			if sp.Trace != trace {
				t.Errorf("shard span %q has trace %q", sp.Name, sp.Trace)
			}
			switch {
			case strings.HasPrefix(sp.Name, "engine."):
				engineRuns += sp.Runs
				ok := false
				for _, r := range campaign.Rungs {
					ok = ok || r == sp.Rung
				}
				if !ok {
					t.Errorf("engine span rung %q not in %v", sp.Rung, campaign.Rungs)
				}
			case sp.Name == "job":
				shardJobs++
			}
		}
	}
	if engineRuns != 12 {
		t.Errorf("shard engine spans cover %d runs, want all 12", engineRuns)
	}
	if shardJobs == 0 {
		t.Error("no shard recorded a job span under the fabric trace id")
	}
}

// TestClusterChunkWaitSpans: with more chunks than in-flight slots,
// chunks queue for a shard, and that wait is on the trace — one
// chunk.wait span per attempt that waited, carrying the trace, job,
// the shard it got and the chunk's runs, ahead of its chunk span.
func TestClusterChunkWaitSpans(t *testing.T) {
	sh1, sh2 := newShardServer(t), newShardServer(t)
	coord := newCoordServer(t, cluster.Config{
		Shards:        []string{sh1.URL, sh2.URL},
		ChunkRuns:     2,
		ShardInflight: 1,
	})
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(service.JobRequest{Spec: src, Runs: 16, Cycles: 300})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, coord.URL+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	const trace = "5107f00d5107f00d"
	req.Header.Set(telemetry.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	jobID := resp.Header.Get("X-Job-Id")
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, err %v: %s", resp.StatusCode, err, raw)
	}
	if _, runs, tr := parseMerged(t, strings.Split(strings.TrimSpace(string(raw)), "\n")); len(runs) != 16 || !tr.Done || tr.Err != "" {
		t.Fatalf("merged stream: %d lines, trailer %+v", len(runs), tr)
	}

	chunkShards := map[string]int{} // chunk spans per shard
	var waits []telemetry.Span
	for _, sp := range getSpans(t, coord.URL, trace) {
		switch sp.Name {
		case "chunk":
			chunkShards[sp.Shard]++
		case "chunk.wait":
			waits = append(waits, sp)
		}
	}
	// Eight chunks over two one-slot shards: only two can start at once.
	if len(waits) == 0 {
		t.Fatal("no chunk.wait span for 8 chunks over 2 in-flight slots")
	}
	for _, sp := range waits {
		if sp.Trace != trace || sp.Job != jobID || sp.Runs != 2 || sp.Attempt < 1 || sp.Err != "" {
			t.Errorf("chunk.wait span %+v, want trace %q, job %q, 2 runs, an attempt", sp, trace, jobID)
		}
		if chunkShards[sp.Shard] == 0 {
			t.Errorf("chunk.wait span %+v names a shard with no chunk span", sp)
		}
	}
}

// asimcoordFamilies pins every family asimcoord's exposition serves:
// name, TYPE and label key. Family names are the wire contract
// dashboards and alerts are written against, so a field rename or a
// changed tag that moves one fails here, not in production.
var asimcoordFamilies = []struct{ name, typ, label string }{
	{"asimcoord_jobs_accepted_total", "counter", ""},
	{"asimcoord_jobs_completed_total", "counter", ""},
	{"asimcoord_jobs_failed_total", "counter", ""},
	{"asimcoord_jobs_rejected_total", "counter", ""},
	{"asimcoord_jobs_abandoned_total", "counter", ""},
	{"asimcoord_jobs_bad_total", "counter", ""},
	{"asimcoord_jobs_resumed_total", "counter", ""},
	{"asimcoord_jobs_active", "gauge", ""},
	{"asimcoord_queue_depth", "gauge", ""},
	{"asimcoord_chunks_dispatched_total", "counter", ""},
	{"asimcoord_chunks_completed_total", "counter", ""},
	{"asimcoord_chunks_redispatched_total", "counter", ""},
	{"asimcoord_runs_merged_total", "counter", ""},
	{"asimcoord_busy_seconds_total", "counter", ""},
	{"asimcoord_uptime_seconds", "gauge", ""},
	{"asimcoord_utilization", "gauge", ""},
	{"asimcoord_job_latency_seconds", "histogram", "le"},
	{"asimcoord_chunk_latency_seconds", "histogram", "le"},
	{"asimcoord_queue_wait_seconds", "histogram", "le"},
	{"asimcoord_write_stall_seconds", "histogram", "le"},
	{"asimcoord_trace_spans", "gauge", ""},
	{"asimcoord_trace_dropped_total", "counter", ""},
	{"asimcoord_shards_healthy", "gauge", ""},
	{"asimcoord_shard_healthy", "gauge", "shard"},
	{"asimcoord_shard_jobs_routed_total", "counter", "shard"},
	{"asimcoord_shard_chunks_dispatched_total", "counter", "shard"},
	{"asimcoord_shard_chunks_completed_total", "counter", "shard"},
	{"asimcoord_shard_chunks_redispatched_total", "counter", "shard"},
	{"asimcoord_shard_failures_total", "counter", "shard"},
}

// TestClusterPrometheusExposition: after a merged job and a resume,
// both tiers' ?format=prometheus renderings pass the strict validator;
// the coordinator's serves exactly the pinned families and carries
// every scalar of its JSON snapshot as its sample — each shard's books
// as samples labeled by the shard's URL, each histogram as its _count
// and _sum.
func TestClusterPrometheusExposition(t *testing.T) {
	sh1, sh2 := newShardServer(t), newShardServer(t)
	coord := newCoordServer(t, cluster.Config{
		Shards:    []string{sh1.URL, sh2.URL},
		ChunkRuns: 4,
	})
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	if status, lines := postJob(t, coord.URL, service.JobRequest{Spec: src, Runs: 8, Cycles: 200}); status != http.StatusOK {
		t.Fatalf("job status %d: %v", status, lines)
	}
	if status, lines := postJob(t, coord.URL, service.JobRequest{Resume: &service.ResumeRequest{Job: "c1", Delivered: 3}}); status != http.StatusOK {
		t.Fatalf("resume status %d: %v", status, lines)
	}

	fetch := func(url string) string {
		resp, err := http.Get(url + "/metrics?format=prometheus")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
			t.Errorf("%s: content type %q, want %q", url, ct, telemetry.ContentType)
		}
		text, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateExposition(text); err != nil {
			t.Fatalf("%s: exposition invalid: %v\n%s", url, err, text)
		}
		return string(text)
	}
	for _, sh := range []*httptest.Server{sh1, sh2} {
		if text := fetch(sh.URL); !strings.Contains(text, "asimd_jobs_chunked_total") {
			t.Errorf("shard exposition missing asimd_jobs_chunked_total")
		}
	}

	// A follower books its last write stall after the client already
	// holds the trailer, so compare the views only once a JSON snapshot
	// taken after the exposition equals one taken before it. The
	// clock-driven uptime_seconds and utilization advance between any
	// two fetches and are left out.
	var snap map[string]any
	var text string
	for try := 0; ; try++ {
		before := getJSON(t, coord.URL)
		text = fetch(coord.URL)
		if snap = getJSON(t, coord.URL); reflect.DeepEqual(before, snap) {
			break
		}
		if try == 100 {
			t.Fatalf("metrics never settled: %v, then %v", before, snap)
		}
	}
	types, samples := parseExposition(text)
	if snap["jobs_accepted"] != 1.0 || snap["runs_merged"] != 8.0 || snap["jobs_resumed"] != 1.0 {
		t.Errorf("JSON metrics after the traffic: %v", snap)
	}
	if len(types) != len(asimcoordFamilies) {
		t.Errorf("exposition serves %d families, want the %d pinned", len(types), len(asimcoordFamilies))
	}
	for _, f := range asimcoordFamilies {
		if types[f.name] != f.typ {
			t.Errorf("family %s has TYPE %q, want %q", f.name, types[f.name], f.typ)
		}
		if !hasSample(samples, f.name, f.label) {
			t.Errorf("family %s has no sample labeled by %q", f.name, f.label)
		}
	}

	for key, v := range snap {
		switch key {
		case "shards":
			shards := v.([]any)
			if len(shards) != 2 {
				t.Fatalf("JSON has %d shards, want 2", len(shards))
			}
			for _, sh := range shards {
				books := sh.(map[string]any)
				label := `{shard="` + books["url"].(string) + `"}`
				for k, v := range books {
					if k != "url" {
						checkSample(t, samples, "asimcoord_shard_"+k, label, k, v)
					}
				}
			}
		default:
			checkSample(t, samples, "asimcoord_"+key, "", key, v)
		}
	}
}

// getJSON fetches the JSON metrics snapshot, less its clock-driven
// gauges.
func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	delete(snap, "uptime_seconds")
	delete(snap, "utilization")
	return snap
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
// sample name+labels (name with _total if it is a counter; a bool as
// 1 or 0), or for a histogram its name_count and name_sum.
func checkSample(t *testing.T, samples map[string]string, name, labels, key string, v any) {
	t.Helper()
	want := map[string]any{}
	switch v := v.(type) {
	case map[string]any:
		want[name+"_count"], want[name+"_sum"] = v["count"], v["sum"]
	case bool:
		want[name+labels] = 0.0
		if v {
			want[name+labels] = 1.0
		}
	default:
		if _, ok := samples[name+labels]; !ok {
			name += "_total"
		}
		want[name+labels] = v
	}
	for name, v := range want {
		got, ok := samples[name]
		if f, isNum := v.(float64); !ok || !isNum || got != strconv.FormatFloat(f, 'g', -1, 64) {
			t.Errorf("JSON %s = %v, but the exposition's %s is %q (present: %v)", key, v, name, got, ok)
		}
	}
}
