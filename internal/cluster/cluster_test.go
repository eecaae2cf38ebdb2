// Cluster fabric tests, in-process: real shard servers (httptest over
// internal/service in shard mode), a real coordinator, real HTTP in
// between. The load-bearing assertion throughout is the merge
// invariant — the merged stream's run lines are byte-identical to a
// single-node Engine.Execute of the same job, whatever the shard
// count, and even when a shard dies mid-campaign.
package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/service"
)

// newShardServer starts one asimd-equivalent in shard mode.
func newShardServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := service.New(service.Config{
		Engine:           campaign.Engine{Workers: 2, Chunk: 128},
		ShardMode:        true,
		CheckpointCycles: 64,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// newCoordServer starts a coordinator over the given shard URLs.
func newCoordServer(t *testing.T, cfg cluster.Config) *httptest.Server {
	t.Helper()
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	return ts
}

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

// parseMerged splits a merged stream and asserts strict index order —
// the coordinator's delivery contract, stronger than a single node's
// completion order.
func parseMerged(t *testing.T, lines []string) (service.JobHeader, []string, service.JobTrailer) {
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
	for i, l := range raw {
		var rl service.RunLine
		if err := json.Unmarshal([]byte(l), &rl); err != nil {
			t.Fatalf("run line %q: %v", l, err)
		}
		if rl.Index != i {
			t.Fatalf("merged stream out of order: line %d has index %d", i, rl.Index)
		}
	}
	return hdr, raw, tr
}

// specReference renders the single-node Engine.Execute reference
// lines for a spec job — the bytes every merged stream must match.
func specReference(t *testing.T, src string, runs int, cycles int64) []string {
	t.Helper()
	spec, err := core.ParseString("ref", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.Engine{Workers: 2, Chunk: 128}
	batch, err := eng.Execute(context.Background(), campaign.Fleet("job", prog, runs, cycles))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, runs)
	for _, r := range batch {
		data, err := json.Marshal(service.ResultLine(r))
		if err != nil {
			t.Fatal(err)
		}
		want[r.Index] = string(data)
	}
	return want
}

// TestClusterMergeByteIdentity is the acceptance invariant: the same
// job posted to a 1-, 2- and 4-shard cluster yields merged run lines
// byte-identical to a single-node Engine.Execute, in strict index
// order, with sane trailer totals.
func TestClusterMergeByteIdentity(t *testing.T) {
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	const runs, cycles = 24, 400
	want := specReference(t, src, runs, cycles)

	for _, nShards := range []int{1, 2, 4} {
		var urls []string
		for i := 0; i < nShards; i++ {
			urls = append(urls, newShardServer(t).URL)
		}
		coord := newCoordServer(t, cluster.Config{Shards: urls, ChunkRuns: 5, ShardInflight: 2})
		status, lines := postJob(t, coord.URL, service.JobRequest{Spec: src, Runs: runs, Cycles: cycles})
		if status != http.StatusOK {
			t.Fatalf("%d shards: status %d: %v", nShards, status, lines)
		}
		hdr, raw, tr := parseMerged(t, lines)
		if hdr.Runs != runs || hdr.Backend != "compiled" || len(hdr.SpecDigest) != 64 {
			t.Errorf("%d shards: header %+v", nShards, hdr)
		}
		if !tr.Done || tr.Err != "" || tr.Summary.Runs != runs || tr.Summary.Errors != 0 {
			t.Errorf("%d shards: trailer %+v", nShards, tr)
		}
		if len(raw) != runs {
			t.Fatalf("%d shards: %d run lines, want %d", nShards, len(raw), runs)
		}
		for i, l := range raw {
			if l != want[i] {
				t.Errorf("%d shards, run %d: merged line differs from single-node:\n merged: %s\n single: %s", nShards, i, l, want[i])
			}
		}
	}
}

// TestClusterScenarioJob routes a scenario job (runs counted by a
// local build, key hashed from name+params) across two shards.
func TestClusterScenarioJob(t *testing.T) {
	urls := []string{newShardServer(t).URL, newShardServer(t).URL}
	coord := newCoordServer(t, cluster.Config{Shards: urls, ChunkRuns: 4})

	const runs = 10
	status, lines := postJob(t, coord.URL, service.JobRequest{Scenario: "sieve-fleet", Runs: runs, Cycles: 400})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, lines)
	}
	hdr, raw, tr := parseMerged(t, lines)
	if hdr.Scenario != "sieve-fleet" || hdr.Runs != runs {
		t.Errorf("header: %+v", hdr)
	}
	if !tr.Done || tr.Err != "" || tr.Summary.Runs != runs {
		t.Errorf("trailer: %+v", tr)
	}
	if len(raw) != runs {
		t.Fatalf("%d run lines, want %d", len(raw), runs)
	}

	// Same job on a bare shard, unchunked: the merged lines must be
	// that stream's lines (single-node reference via HTTP this time,
	// sorted by index — a single node streams in completion order).
	shard := newShardServer(t)
	status, slines := postJob(t, shard.URL, service.JobRequest{Scenario: "sieve-fleet", Runs: runs, Cycles: 400})
	if status != http.StatusOK {
		t.Fatalf("reference: status %d", status)
	}
	want := make([]string, runs)
	for _, l := range slines[1 : len(slines)-1] {
		var rl service.RunLine
		if err := json.Unmarshal([]byte(l), &rl); err != nil {
			t.Fatal(err)
		}
		want[rl.Index] = l
	}
	for i, l := range raw {
		if l != want[i] {
			t.Errorf("run %d: merged line differs from single shard:\n merged: %s\n single: %s", i, l, want[i])
		}
	}
}

// flakyShard wraps a shard server and kills it mid-stream: the first
// /v1/jobs response is cut off right after the first checkpoint line
// flushes, and from then on every request (including /healthz) fails.
// That is a SIGKILL's signature as HTTP sees it, made deterministic.
type flakyShard struct {
	inner http.Handler
	mu    sync.Mutex
	dead  bool
}

func (f *flakyShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	dead := f.dead
	f.mu.Unlock()
	if dead {
		panic(http.ErrAbortHandler)
	}
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/jobs") {
		cw := &cutoffWriter{ResponseWriter: w, kill: func() {
			f.mu.Lock()
			f.dead = true
			f.mu.Unlock()
		}}
		f.inner.ServeHTTP(cw, r)
		if cw.cut {
			panic(http.ErrAbortHandler)
		}
		return
	}
	f.inner.ServeHTTP(w, r)
}

// cutoffWriter passes bytes through until a checkpoint line has been
// delivered, then declares the shard dead and swallows everything
// after — the coordinator got warm-start state but not the results.
type cutoffWriter struct {
	http.ResponseWriter
	kill func()
	cut  bool
}

func (c *cutoffWriter) Write(p []byte) (int, error) {
	if c.cut {
		return 0, fmt.Errorf("shard killed")
	}
	n, err := c.ResponseWriter.Write(p)
	if bytes.Contains(p, []byte(`"checkpoint":true`)) {
		c.cut = true
		c.kill()
	}
	return n, err
}

func (c *cutoffWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok && !c.cut {
		f.Flush()
	}
}

// warmSpy records whether any chunk request arriving at the surviving
// shard carried warm-start entries — the proof that failover actually
// reuses the dead shard's checkpoints instead of cold-starting.
type warmSpy struct {
	inner http.Handler
	mu    sync.Mutex
	warm  int
}

func (s *warmSpy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/jobs") {
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		var req service.JobRequest
		if json.Unmarshal(body, &req) == nil && len(req.Warm) > 0 {
			s.mu.Lock()
			s.warm++
			s.mu.Unlock()
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	s.inner.ServeHTTP(w, r)
}

func (s *warmSpy) warmChunks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warm
}

// TestClusterFailover kills one of two shards mid-campaign and
// asserts the three failover guarantees at once: the merged stream
// still completes byte-identical to the single-node reference, the
// re-dispatched chunks warm-start from the dead stream's checkpoints,
// and the coordinator's books record the re-dispatch.
func TestClusterFailover(t *testing.T) {
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	const runs, cycles = 16, 400
	want := specReference(t, src, runs, cycles)

	mkService := func() http.Handler {
		return service.New(service.Config{
			Engine:           campaign.Engine{Workers: 2, Chunk: 128},
			ShardMode:        true,
			CheckpointCycles: 64,
		})
	}
	spy := &warmSpy{inner: mkService()}
	survivor := httptest.NewServer(spy)
	t.Cleanup(survivor.Close)
	flaky := &flakyShard{inner: mkService()}
	victim := httptest.NewServer(flaky)
	t.Cleanup(victim.Close)

	coord := newCoordServer(t, cluster.Config{
		Shards:        []string{survivor.URL, victim.URL},
		ChunkRuns:     4,
		ShardInflight: 1,
		HealthFails:   1,
		Retries:       4,
		// Fast probes so the test never waits on a 2s default tick.
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
	})

	status, lines := postJob(t, coord.URL, service.JobRequest{Spec: src, Runs: runs, Cycles: cycles})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, lines)
	}
	_, raw, tr := parseMerged(t, lines)
	if !tr.Done || tr.Err != "" || tr.Summary.Runs != runs {
		t.Fatalf("trailer after failover: %+v", tr)
	}
	if len(raw) != runs {
		t.Fatalf("%d run lines, want %d", len(raw), runs)
	}
	for i, l := range raw {
		if l != want[i] {
			t.Errorf("run %d: merged line differs from single-node after failover:\n merged: %s\n single: %s", i, l, want[i])
		}
	}

	// The victim streamed at least one checkpoint before dying, so the
	// survivor must have seen warm entries on a re-dispatched chunk.
	if spy.warmChunks() == 0 {
		t.Error("no warm-started chunk reached the survivor after the kill")
	}

	m := getMetrics(t, coord.URL)
	if m.ChunksRedispatched == 0 {
		t.Errorf("metrics record no re-dispatch: %+v", m)
	}
	if m.JobsCompleted != 1 || m.RunsMerged != runs {
		t.Errorf("metrics: %+v", m)
	}
}

// TestClusterResume detaches the merge from the client: a reader that
// drops mid-stream can present {job, delivered} and receive exactly
// the index-ordered remainder from the merge buffer.
func TestClusterResume(t *testing.T) {
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	const runs, cycles = 12, 400
	want := specReference(t, src, runs, cycles)
	urls := []string{newShardServer(t).URL, newShardServer(t).URL}
	coord := newCoordServer(t, cluster.Config{Shards: urls, ChunkRuns: 4})

	// First client: read the header and two run lines, then hang up.
	body, _ := json.Marshal(service.JobRequest{Spec: src, Runs: runs, Cycles: cycles})
	resp, err := http.Post(coord.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Header.Get("X-Job-Id")
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	delivered := 0
	var head []string
	for sc.Scan() && delivered < 2 {
		line := sc.Text()
		var rl service.RunLine
		if json.Unmarshal([]byte(line), &rl) == nil && rl.Digest != "" {
			head = append(head, line)
			delivered++
		}
	}
	resp.Body.Close()
	if id == "" || delivered != 2 {
		t.Fatalf("first stream: job %q, %d lines", id, delivered)
	}

	// Resume with the token; the merge finishes in the background and
	// the remainder replays index-ordered from line `delivered` on.
	status, lines := postJob(t, coord.URL, service.JobRequest{
		Resume: &service.ResumeRequest{Job: id, Delivered: delivered},
	})
	if status != http.StatusOK {
		t.Fatalf("resume: status %d: %v", status, lines)
	}
	var hdr service.JobHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || !hdr.Resumed {
		t.Fatalf("resume header %q (err %v)", lines[0], err)
	}
	var tr service.JobTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil || !tr.Done || tr.Err != "" {
		t.Fatalf("resume trailer %q (err %v)", lines[len(lines)-1], err)
	}
	rest := lines[1 : len(lines)-1]
	all := append(append([]string(nil), head...), rest...)
	if len(all) != runs {
		t.Fatalf("first stream + resume delivered %d lines, want %d", len(all), runs)
	}
	for i, l := range all {
		if l != want[i] {
			t.Errorf("run %d: resumed delivery differs from single-node:\n got:  %s\n want: %s", i, l, want[i])
		}
	}
}

// TestClusterBadRequests pins the coordinator's request-surface
// boundaries. Refusals come from the planner it shares with asimd
// (whose suite walks the whole table); here one of each kind proves
// the wiring — including that the shard protocol is the coordinator's
// to send, never to receive.
func TestClusterBadRequests(t *testing.T) {
	urls := []string{newShardServer(t).URL}
	coord := newCoordServer(t, cluster.Config{Shards: urls})
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}

	bad := map[string]service.JobRequest{
		"no workload":      {},
		"bad spec":         {Spec: "definitely not a spec"},
		"shard-only chunk": {Spec: src, Runs: 2, Chunk: &service.ChunkRequest{Offset: 0, Count: 1}},
	}
	for name, req := range bad {
		if status, _ := postJob(t, coord.URL, req); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
	if status, _ := postJob(t, coord.URL, service.JobRequest{
		Resume: &service.ResumeRequest{Job: "c999"},
	}); status != http.StatusNotFound {
		t.Errorf("unknown resume: status %d, want 404", status)
	}
	if m := getMetrics(t, coord.URL); m.JobsBad != int64(len(bad))+1 || m.JobsAccepted != 0 || m.ChunksDispatched != 0 {
		t.Errorf("metrics after refusals: %+v", m)
	}
	if _, err := cluster.New(cluster.Config{}); err == nil {
		t.Error("New with no shards: no error")
	}
}

// TestClusterShardRefusal: a shard applies its own limits to the full
// run list, so a coordinator configured above its shards gets 400 from
// every healthy one. That is the request's fault, not the shards': the
// job fails after one attempt carrying the shard's message, and no
// shard is indicted, marked unroutable or sent a re-dispatch.
func TestClusterShardRefusal(t *testing.T) {
	var urls []string
	for range 2 {
		ts := httptest.NewServer(service.New(service.Config{
			Limits:    service.Limits{MaxRuns: 8},
			ShardMode: true,
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	coord := newCoordServer(t, cluster.Config{Shards: urls, ChunkRuns: 4, HealthFails: 1})

	status, lines := postJob(t, coord.URL, service.JobRequest{Spec: machines.Counter(), Runs: 12, Cycles: 16})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, lines)
	}
	_, raw, tr := parseMerged(t, lines)
	if !tr.Done || !strings.Contains(tr.Err, "caps jobs at 8") || len(raw) != 0 {
		t.Fatalf("trailer %+v after %d run lines, want the shard's refusal", tr, len(raw))
	}
	m := getMetrics(t, coord.URL)
	if m.JobsFailed != 1 || m.ShardsHealthy != 2 || m.ChunksRedispatched != 0 || m.ChunksDispatched > 3 {
		t.Errorf("metrics after a shard refusal: %+v", m)
	}
	for _, sh := range m.Shards {
		if sh.Failures != 0 || !sh.Healthy {
			t.Errorf("shard indicted for the request's fault: %+v", sh)
		}
	}
}

// TestClusterBigSnapshot: a design whose machine state renders past a
// chunk stream's line cap must not break the stream, let alone indict
// the shards. The shards leave such snapshots off their streams, so
// the job completes byte-identical to single-node, with no re-dispatch
// and both shards healthy.
func TestClusterBigSnapshot(t *testing.T) {
	const src = `# an 8-bit counter addressing a 200000-word memory
= 200
ctr big inc .
A inc 4 ctr 1
M ctr 0 inc.0.7 1 1
M big ctr.0.7 inc 1 200000
.
`
	const runs, cycles = 2, 200
	want := specReference(t, src, runs, cycles)
	urls := []string{newShardServer(t).URL, newShardServer(t).URL}
	coord := newCoordServer(t, cluster.Config{Shards: urls, HealthFails: 1})

	status, lines := postJob(t, coord.URL, service.JobRequest{Spec: src, Runs: runs, Cycles: cycles})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, lines)
	}
	_, raw, tr := parseMerged(t, lines)
	if !tr.Done || tr.Err != "" || len(raw) != runs {
		t.Fatalf("trailer %+v after %d run lines", tr, len(raw))
	}
	for i, l := range raw {
		if l != want[i] {
			t.Errorf("run %d: merged line differs from single-node:\n merged: %s\n single: %s", i, l, want[i])
		}
	}
	m := getMetrics(t, coord.URL)
	if m.JobsCompleted != 1 || m.ShardsHealthy != 2 || m.ChunksRedispatched != 0 {
		t.Errorf("metrics after a big-snapshot job: %+v", m)
	}
	for _, sh := range m.Shards {
		if sh.Failures != 0 || !sh.Healthy {
			t.Errorf("shard indicted by a big snapshot: %+v", sh)
		}
	}
}

// getMetrics fetches the coordinator's JSON metrics snapshot.
func getMetrics(t *testing.T, url string) cluster.Metrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m cluster.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}
