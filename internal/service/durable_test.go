// Durability end-to-end tests: stream resumption after a client
// disconnect, crash recovery across server instances sharing one
// durable directory, the constant store-read cost of following a live
// job, and the serving-layer request-validation fixes (413 for
// oversized bodies; abandoned vs failed classification is in
// TestServiceSlowReader, negative parameters in service.BadRequests).
package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/machines"
	"repro/internal/service"
)

// durableJob is the workload the resume tests interrupt: long enough
// (~8 × 150k compiled cycles on one worker) that a client cancelling
// after two run lines reliably lands mid-campaign, short enough that
// completing the remainder is cheap.
func durableJob(t *testing.T) service.JobRequest {
	t.Helper()
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	return service.JobRequest{Spec: src, Runs: 8, Cycles: 150_000}
}

// durableEngine gangs two runs at a time so run lines stream in small
// increments — a client reading a prefix then cancelling reliably
// leaves finished, checkpointed-unfinished and never-dispatched runs
// behind, which is exactly the mix recovery must handle.
var durableEngine = campaign.Engine{Workers: 1, Chunk: 64, GangSize: 2}

func durableConfig(store durable.Store) service.Config {
	return service.Config{
		Engine:           durableEngine,
		Store:            store,
		CheckpointCycles: 8192,
	}
}

// postPartial POSTs a job, reads n NDJSON lines (header included),
// then drops the connection mid-stream. Returns the job id and the
// lines read.
func postPartial(t *testing.T, ts *httptest.Server, req service.JobRequest, n int) (string, []string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var lines []string
	for i := 0; i < n; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		lines = append(lines, strings.TrimSuffix(line, "\n"))
	}
	cancel() // walk away mid-stream
	return resp.Header.Get("X-Job-Id"), lines
}

// resume POSTs a resume token and returns the status plus body lines.
func resume(t *testing.T, url, job string, delivered int) (int, []string) {
	t.Helper()
	return postJob(t, url, service.JobRequest{
		Resume: &service.ResumeRequest{Job: job, Delivered: delivered},
	})
}

// referenceLines runs the request on a plain store-less server and
// returns its run lines sorted by index — the byte-identity oracle
// for every interrupted-then-resumed variant.
func referenceLines(t *testing.T, req service.JobRequest) string {
	t.Helper()
	_, ts := newServer(t, service.Config{Engine: durableEngine})
	status, lines := postJob(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("reference status %d", status)
	}
	_, raw, _, tr := parseStream(t, lines)
	if tr.Err != "" {
		t.Fatalf("reference trailer error: %s", tr.Err)
	}
	return sortedRunLines(t, raw)
}

// TestServiceResumeAfterDisconnect: a client that drops mid-stream
// resumes with (job id, lines received) and gets every remaining run
// exactly once; the union of both streams is byte-identical to the
// uninterrupted job. The job is counted abandoned, never failed, and
// its durable record is dropped once fully delivered.
func TestServiceResumeAfterDisconnect(t *testing.T) {
	req := durableJob(t)
	want := referenceLines(t, req)

	store := durable.NewMemStore()
	srv, ts := newServer(t, durableConfig(store))
	jobID, lines := postPartial(t, ts, req, 3) // header + 2 run lines
	got := lines[1:]
	waitFor(t, "interrupted handler to finish", func() bool {
		m := srv.Metrics()
		return m.JobsActive == 0 && m.JobsAbandoned+m.JobsCompleted == 1
	})

	status, rlines := resume(t, ts.URL, jobID, len(got))
	if status != http.StatusOK {
		t.Fatalf("resume status %d: %v", status, rlines)
	}
	hdr, raw, _, tr := parseStream(t, rlines)
	if hdr.Job != jobID || !hdr.Resumed {
		t.Errorf("resume header: %+v", hdr)
	}
	if !tr.Done || tr.Err != "" {
		t.Errorf("resume trailer: %+v", tr)
	}
	got = append(got, raw...)
	if len(got) != req.Runs {
		t.Fatalf("original %d + resumed %d lines, want %d exactly-once",
			len(lines)-1, len(raw), req.Runs)
	}
	if merged := sortedRunLines(t, got); merged != want {
		t.Errorf("merged streams differ from uninterrupted job:\n got:\n%s\nwant:\n%s", merged, want)
	}
	if m := srv.Metrics(); m.JobsResumed != 1 || m.JobsFailed != 0 {
		t.Errorf("metrics resumed=%d failed=%d", m.JobsResumed, m.JobsFailed)
	}

	// Fully delivered: the record is gone, and so is a second resume.
	jobs, err := store.Jobs()
	if err != nil || len(jobs) != 0 {
		t.Errorf("store after full delivery: jobs=%v err=%v", jobs, err)
	}
	if status, _ := resume(t, ts.URL, jobID, 0); status != http.StatusNotFound {
		t.Errorf("second resume status %d, want 404", status)
	}
}

// TestServiceCrashRecovery: a server dies mid-campaign (simulated by
// abandoning the stream and discarding the Server over its durable
// directory); a fresh Server over the same directory re-admits the
// job, warm-starts its unfinished runs from checkpoints, and a
// resuming client receives the complete run set byte-identical to an
// uninterrupted execution. The CI smoke test does the same dance with
// a real SIGKILL of the asimd process.
func TestServiceCrashRecovery(t *testing.T) {
	req := durableJob(t)
	want := referenceLines(t, req)
	dir := t.TempDir()

	// First life: interrupt the job mid-stream, then drop the server.
	storeA, err := durable.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvA, tsA := newServer(t, durableConfig(storeA))
	jobID, _ := postPartial(t, tsA, req, 3)
	waitFor(t, "interrupted handler to finish", func() bool {
		m := srvA.Metrics()
		return m.JobsActive == 0 && m.JobsAbandoned+m.JobsCompleted == 1
	})
	if m := srvA.Metrics(); m.Checkpoints == 0 {
		t.Error("no checkpoints persisted before the crash")
	}
	tsA.Close()
	if err := storeA.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: recover, then resume from scratch.
	storeB, err := durable.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvB, tsB := newServer(t, durableConfig(storeB))
	recovered, err := srvB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 1 {
		t.Fatalf("recovered %d jobs, want 1", recovered)
	}
	status, rlines := resume(t, tsB.URL, jobID, 0)
	if status != http.StatusOK {
		t.Fatalf("resume status %d: %v", status, rlines)
	}
	hdr, raw, _, tr := parseStream(t, rlines)
	if hdr.Job != jobID || !hdr.Resumed || !tr.Done || tr.Err != "" {
		t.Errorf("resumed stream header %+v trailer %+v", hdr, tr)
	}
	if len(raw) != req.Runs {
		t.Fatalf("resumed stream has %d run lines, want %d", len(raw), req.Runs)
	}
	if got := sortedRunLines(t, raw); got != want {
		t.Errorf("recovered job differs from uninterrupted job:\n got:\n%s\nwant:\n%s", got, want)
	}
	if tr.Summary.Runs != req.Runs || tr.Summary.Errors != 0 || tr.Summary.Divergences != 0 {
		t.Errorf("recovered trailer summary: %+v", tr.Summary)
	}
	if m := srvB.Metrics(); m.JobsRecovered != 1 || m.JobsResumed != 1 {
		t.Errorf("metrics recovered=%d resumed=%d", m.JobsRecovered, m.JobsResumed)
	}

	// A fresh id on the recovered server must not collide with the
	// recovered job's.
	status, lines := postJob(t, tsB.URL, service.JobRequest{Spec: machines.Counter(), Cycles: 64})
	if status != http.StatusOK {
		t.Fatalf("post-recovery job status %d", status)
	}
	fresh, _, _, _ := parseStream(t, lines)
	if fresh.Job == jobID {
		t.Errorf("fresh job reused recovered id %s", jobID)
	}

	jobs, err := storeB.Jobs()
	if err != nil || len(jobs) != 0 {
		t.Errorf("store after recovery + delivery: jobs=%v err=%v", jobs, err)
	}
	if err := storeB.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceRecoveredWarmRunsGang: a recovered job whose runs all
// have checkpoints resumes every one of them from its snapshot on a
// gang rung, as /metrics books it, with run lines byte-identical to an
// uninterrupted execution. The store is written by hand so that every
// run is warm and none has a result.
func TestServiceRecoveredWarmRunsGang(t *testing.T) {
	req := durableJob(t)
	req.Runs, req.Cycles = 4, 20_000
	want := referenceLines(t, req)

	spec, err := core.ParseString("sieve", req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewMachine(core.Options{})
	if err := m.Run(5_000); err != nil {
		t.Fatal(err)
	}
	store := durable.NewMemStore()
	admit, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	recs := []durable.Record{{Kind: durable.KindAdmit, Data: admit}}
	for i := range req.Runs {
		recs = append(recs, durable.Record{Kind: durable.KindCheckpoint, Run: int64(i), Cycle: m.Cycle(), Data: m.SaveState()})
	}
	for _, rec := range recs {
		if err := store.Append("j1", rec); err != nil {
			t.Fatal(err)
		}
	}

	srv, ts := newServer(t, durableConfig(store))
	if n, err := srv.Recover(); err != nil || n != 1 {
		t.Fatalf("recovered %d jobs (err %v), want 1", n, err)
	}
	status, lines := resume(t, ts.URL, "j1", 0)
	if status != http.StatusOK {
		t.Fatalf("resume status %d: %v", status, lines)
	}
	_, raw, _, tr := parseStream(t, lines)
	if !tr.Done || tr.Err != "" {
		t.Errorf("resumed trailer: %+v", tr)
	}
	if got := sortedRunLines(t, raw); got != want {
		t.Errorf("recovered job differs from uninterrupted job:\n got:\n%s\nwant:\n%s", got, want)
	}
	if met := getMetrics(t, ts.URL); met.RunsLaneLoop != int64(req.Runs) || met.RunsScalar != 0 {
		t.Errorf("warm runs booked lane-loop %d, scalar %d; want all %d on lane-loop", met.RunsLaneLoop, met.RunsScalar, req.Runs)
	}
}

// TestServiceDurableDrop: an uninterrupted, fully delivered job
// leaves nothing behind in the store, while its execution was still
// checkpointing all along.
func TestServiceDurableDrop(t *testing.T) {
	store := durable.NewMemStore()
	srv, ts := newServer(t, durableConfig(store))
	status, lines := postJob(t, ts.URL, durableJob(t))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if _, raw, _, tr := parseStream(t, lines); len(raw) != 8 || tr.Err != "" {
		t.Fatalf("stream: %d lines, trailer err %q", len(raw), tr.Err)
	}
	if m := srv.Metrics(); m.Checkpoints == 0 || m.JobsCompleted != 1 {
		t.Errorf("metrics checkpoints=%d completed=%d", m.Checkpoints, m.JobsCompleted)
	}
	jobs, err := store.Jobs()
	if err != nil || len(jobs) != 0 {
		t.Errorf("store after clean delivery: jobs=%v err=%v", jobs, err)
	}
}

// TestServiceResumeValidation: the resume token's error envelope —
// a token plus a workload is a contradiction, negative delivered
// counts are nonsense, unknown jobs are 404, and a server without a
// store has nothing to resume from.
func TestServiceResumeValidation(t *testing.T) {
	srv, ts := newServer(t, durableConfig(durable.NewMemStore()))
	if status, _ := postJob(t, ts.URL, service.JobRequest{
		Spec:   machines.Counter(),
		Resume: &service.ResumeRequest{Job: "j1"},
	}); status != http.StatusBadRequest {
		t.Errorf("resume+spec status %d, want 400", status)
	}
	if status, _ := resume(t, ts.URL, "j1", -1); status != http.StatusBadRequest {
		t.Errorf("negative delivered status %d, want 400", status)
	}
	if status, _ := resume(t, ts.URL, "no-such-job", 0); status != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", status)
	}
	if m := srv.Metrics(); m.JobsBad != 3 {
		t.Errorf("jobs_bad = %d, want 3", m.JobsBad)
	}

	_, bare := newServer(t, service.Config{})
	if status, _ := resume(t, bare.URL, "j1", 0); status != http.StatusNotFound {
		t.Errorf("store-less resume status %d, want 404", status)
	}
}

// TestServiceResumeOverclaim: a resume token claiming more lines than
// the store holds is a bad request, answered 400 before anything
// streams, and the job's records survive it: an honest resume of the
// same interrupted job still receives every remaining run exactly
// once.
func TestServiceResumeOverclaim(t *testing.T) {
	req := durableJob(t)
	want := referenceLines(t, req)

	store := durable.NewMemStore()
	srv, ts := newServer(t, durableConfig(store))
	jobID, lines := postPartial(t, ts, req, 3) // header + 2 run lines
	got := lines[1:]
	waitFor(t, "interrupted handler to finish", func() bool {
		m := srv.Metrics()
		return m.JobsActive == 0 && m.JobsAbandoned+m.JobsCompleted == 1
	})

	if status, body := resume(t, ts.URL, jobID, 1000); status != http.StatusBadRequest {
		t.Fatalf("resume delivered=1000 of an %d-run job: status %d, want 400 (%v)", req.Runs, status, body)
	}
	status, rlines := resume(t, ts.URL, jobID, len(got))
	if status != http.StatusOK {
		t.Fatalf("honest resume after the overclaim: status %d, want 200 (%v)", status, rlines)
	}
	_, raw, _, tr := parseStream(t, rlines)
	if !tr.Done || tr.Err != "" {
		t.Errorf("honest resume trailer: %+v", tr)
	}
	if merged := sortedRunLines(t, append(got, raw...)); merged != want {
		t.Errorf("merged streams differ from uninterrupted job:\n got:\n%s\nwant:\n%s", merged, want)
	}
}

// TestServiceOversizedBody: a body past MaxBody is its own protocol
// condition — 413 naming the limit, not a generic 400.
func TestServiceOversizedBody(t *testing.T) {
	srv, ts := newServer(t, service.Config{Limits: service.Limits{MaxBody: 256}})
	body, err := json.Marshal(service.JobRequest{Spec: strings.Repeat("; padding\n", 200)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, msg)
	}
	if !strings.Contains(string(msg), "256") {
		t.Errorf("413 body does not name the limit: %s", msg)
	}
	if m := srv.Metrics(); m.JobsBad != 1 {
		t.Errorf("jobs_bad = %d, want 1", m.JobsBad)
	}
}

// replayCounter counts Store.Replay calls — each one, on a FileStore,
// is a re-read of the job's segment.
type replayCounter struct {
	durable.Store
	replays atomic.Int64
}

func (c *replayCounter) Replay(job string, fn func(durable.Record) error) error {
	c.replays.Add(1)
	return c.Store.Replay(job, fn)
}

// TestServiceResumeReplaysOnce: a resume stream that follows a live
// 256-run job to its trailer reads the store a constant number of
// times — once to find the job, once to seed the completion's log —
// not once per delivered line (which made following an N-run job cost
// O(N²) record reads).
func TestServiceResumeReplaysOnce(t *testing.T) {
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	req := service.JobRequest{Spec: src, Runs: 256, Cycles: 6000}
	store := &replayCounter{Store: durable.NewMemStore()}
	srv, ts := newServer(t, durableConfig(store))
	jobID, lines := postPartial(t, ts, req, 3) // header + 2 run lines
	waitFor(t, "interrupted handler to finish", func() bool {
		m := srv.Metrics()
		return m.JobsActive == 0 && m.JobsAbandoned+m.JobsCompleted == 1
	})
	if srv.Metrics().JobsAbandoned != 1 {
		t.Skip("the job finished before the client walked away; nothing live to follow")
	}

	before := store.replays.Load()
	status, rlines := resume(t, ts.URL, jobID, len(lines)-1)
	if status != http.StatusOK {
		t.Fatalf("resume status %d: %v", status, rlines)
	}
	_, raw, _, tr := parseStream(t, rlines)
	if !tr.Done || tr.Err != "" || len(raw) != req.Runs-(len(lines)-1) {
		t.Fatalf("resumed stream: %d run lines, trailer %+v", len(raw), tr)
	}
	if n := store.replays.Load() - before; n > 3 {
		t.Errorf("following a live %d-run job replayed the store %d times, want a constant (<= 3)", req.Runs, n)
	}
}

// refusingStore refuses one result record — the failAt-th result
// Append it sees — and passes every other call through.
type refusingStore struct {
	durable.Store
	failAt  int64
	results atomic.Int64
	refused atomic.Bool
}

func (s *refusingStore) Append(job string, rec durable.Record) error {
	if rec.Kind == durable.KindResult && s.results.Add(1) == s.failAt {
		s.refused.Store(true)
		return errors.New("injected result append failure")
	}
	return s.Store.Append(job, rec)
}

// TestServiceUnstoredResultRedelivered: a result line the store
// refuses is never delivered, and neither is any later line of the
// job — the campaign stops there without a completion marker, so the
// runs without a stored result execute again. An interrupted job is
// recovered by a server whose store refuses the background
// completion's second result; once that completion stops, a resume
// from nothing still receives every run exactly once, byte-identical
// to an uninterrupted execution.
func TestServiceUnstoredResultRedelivered(t *testing.T) {
	req := durableJob(t)
	want := referenceLines(t, req)
	store := durable.NewMemStore()

	// First life: interrupt the job mid-stream.
	srvA, tsA := newServer(t, durableConfig(store))
	jobID, _ := postPartial(t, tsA, req, 3)
	waitFor(t, "interrupted handler to finish", func() bool {
		m := srvA.Metrics()
		return m.JobsActive == 0 && m.JobsAbandoned+m.JobsCompleted == 1
	})

	// Second life: recovery's background completion meets a store that
	// refuses its second result.
	refusing := &refusingStore{Store: store, failAt: 2}
	srvB, tsB := newServer(t, durableConfig(refusing))
	if recovered, err := srvB.Recover(); err != nil || recovered != 1 {
		t.Fatalf("recovered %d jobs (err %v), want 1", recovered, err)
	}
	waitFor(t, "the background completion to stop", func() bool {
		return refusing.refused.Load() && srvB.Metrics().JobsActive == 0
	})

	status, rlines := resume(t, tsB.URL, jobID, 0)
	if status != http.StatusOK {
		t.Fatalf("resume status %d: %v", status, rlines)
	}
	_, raw, _, tr := parseStream(t, rlines)
	if !tr.Done || tr.Err != "" {
		t.Errorf("resume trailer: %+v", tr)
	}
	if len(raw) != req.Runs || tr.Summary.Runs != req.Runs {
		t.Fatalf("resumed stream has %d run lines and a trailer of %d runs, want %d",
			len(raw), tr.Summary.Runs, req.Runs)
	}
	if got := sortedRunLines(t, raw); got != want {
		t.Errorf("resumed job differs from uninterrupted job:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// kindRefusingStore refuses every record of one kind and counts the
// records of each kind it stores.
type kindRefusingStore struct {
	durable.Store
	refuse  atomic.Uint32 // the durable.Kind refused; 0 refuses none
	refused atomic.Int64
	stored  [durable.KindDone + 1]atomic.Int64
}

func refusingKind(store durable.Store, kind durable.Kind) *kindRefusingStore {
	s := &kindRefusingStore{Store: store}
	s.refuse.Store(uint32(kind))
	return s
}

func (s *kindRefusingStore) Append(job string, rec durable.Record) error {
	if uint32(rec.Kind) == s.refuse.Load() {
		s.refused.Add(1)
		return errors.New("injected " + rec.Kind.String() + " append failure")
	}
	if err := s.Store.Append(job, rec); err != nil {
		return err
	}
	if int(rec.Kind) < len(s.stored) {
		s.stored[rec.Kind].Add(1)
	}
	return nil
}

// TestServiceRefusedAdmitRejects: a job whose admit record the store
// refuses is refused itself — 503 before any work, logged and counted
// as a rejection — instead of streaming a job no resume could find.
// Nothing of it stays in the store, and the server serves the next
// job once the store accepts again.
func TestServiceRefusedAdmitRejects(t *testing.T) {
	store := refusingKind(durable.NewMemStore(), durable.KindAdmit)
	srv, ts := newServer(t, durableConfig(store))
	status, lines := postJob(t, ts.URL, service.JobRequest{Spec: machines.Counter(), Runs: 4, Cycles: 64})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %v", status, lines)
	}
	if body := strings.Join(lines, "\n"); !strings.Contains(body, "not admitted") {
		t.Errorf("refusal body %q does not say why", body)
	}
	m := srv.Metrics()
	if m.JobsRejected != 1 || m.JobsAccepted != 0 || m.RunsTotal != 0 || m.JobsActive != 0 {
		t.Errorf("metrics after a refused admit: rejected=%d accepted=%d runs=%d active=%d",
			m.JobsRejected, m.JobsAccepted, m.RunsTotal, m.JobsActive)
	}
	if n := store.stored[durable.KindResult].Load() + store.stored[durable.KindCheckpoint].Load(); n != 0 {
		t.Errorf("a refused job stored %d result and checkpoint records", n)
	}
	if jobs, err := store.Jobs(); err != nil || len(jobs) != 0 {
		t.Errorf("store after a refused admit: jobs=%v err=%v", jobs, err)
	}

	// The refusal released its slot: with the store healthy again, the
	// server runs jobs as before.
	store.refuse.Store(0)
	status, lines = postJob(t, ts.URL, service.JobRequest{Spec: machines.Counter(), Runs: 4, Cycles: 64})
	if status != http.StatusOK {
		t.Fatalf("status %d after the store recovered", status)
	}
	if _, raw, _, tr := parseStream(t, lines); len(raw) != 4 || tr.Err != "" {
		t.Errorf("job after the store recovered: %d run lines, trailer error %q", len(raw), tr.Err)
	}
}

// TestServiceLostDoneRecordSelfHeals decides what a refused done
// record costs: nothing but a restart's worth of bookkeeping. A
// recovered job whose background completion stores every result but
// not its done record reads as unfinished; the next server's Recover
// re-admits it, finds every run's result stored and simulates no run,
// and a resume delivers every line exactly once, byte-identical to an
// uninterrupted execution, under a clean trailer — even when that
// store refuses the done record too.
func TestServiceLostDoneRecordSelfHeals(t *testing.T) {
	req := durableJob(t)
	want := referenceLines(t, req)
	store := durable.NewMemStore()

	// First life: interrupt the job mid-stream.
	srvA, tsA := newServer(t, durableConfig(store))
	jobID, _ := postPartial(t, tsA, req, 3)
	waitFor(t, "interrupted handler to finish", func() bool {
		m := srvA.Metrics()
		return m.JobsActive == 0 && m.JobsAbandoned+m.JobsCompleted == 1
	})

	// Second life: recovery completes the job in the background, but
	// the store refuses its done record.
	noDoneB := refusingKind(store, durable.KindDone)
	srvB, _ := newServer(t, durableConfig(noDoneB))
	if recovered, err := srvB.Recover(); err != nil || recovered != 1 {
		t.Fatalf("recovered %d jobs (err %v), want 1", recovered, err)
	}
	waitFor(t, "the background completion to finish", func() bool {
		return noDoneB.refused.Load() == 1 && srvB.Metrics().JobsActive == 0
	})
	results := 0
	if err := store.Replay(jobID, func(rec durable.Record) error {
		if rec.Kind == durable.KindDone {
			t.Error("the store holds a done record it refused")
		}
		if rec.Kind == durable.KindResult {
			results++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if results != req.Runs {
		t.Fatalf("%d results stored, want all %d", results, req.Runs)
	}

	// Third life: the job is re-admitted and finished without a single
	// run simulated.
	noDoneC := refusingKind(store, durable.KindDone)
	srvC, tsC := newServer(t, durableConfig(noDoneC))
	if recovered, err := srvC.Recover(); err != nil || recovered != 1 {
		t.Fatalf("recovered %d jobs (err %v), want 1", recovered, err)
	}
	status, rlines := resume(t, tsC.URL, jobID, 0)
	if status != http.StatusOK {
		t.Fatalf("resume status %d: %v", status, rlines)
	}
	_, raw, _, tr := parseStream(t, rlines)
	if !tr.Done || tr.Err != "" {
		t.Errorf("resume trailer: %+v", tr)
	}
	if len(raw) != req.Runs || tr.Summary.Runs != req.Runs || tr.Summary.Errors != 0 {
		t.Fatalf("resumed stream has %d run lines and a trailer of %+v, want %d runs",
			len(raw), tr.Summary, req.Runs)
	}
	if got := sortedRunLines(t, raw); got != want {
		t.Errorf("resumed job differs from uninterrupted job:\n got:\n%s\nwant:\n%s", got, want)
	}
	waitFor(t, "the resumed job to be dropped", func() bool {
		jobs, err := store.Jobs()
		return err == nil && len(jobs) == 0
	})
	m := srvC.Metrics()
	if n := noDoneC.stored[durable.KindResult].Load() + noDoneC.stored[durable.KindCheckpoint].Load(); n != 0 || m.RunsTotal != 0 {
		t.Errorf("the third life simulated: %d records stored, %d runs executed; want none", n, m.RunsTotal)
	}
}
