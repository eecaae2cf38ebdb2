// Shard-protocol tests: chunk-scoped jobs, streamed checkpoints and
// warm entries — the worker half of the cluster fabric. The invariant
// under test everywhere is byte-identity: a chunk job's run lines are
// exactly the lines the unchunked job would have streamed for the same
// indices, so a coordinator can merge shard streams without ever
// re-rendering a result.
package service_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"repro/internal/campaign"
	"repro/internal/machines"
	"repro/internal/service"
)

// splitShardStream parses a shard-mode NDJSON stream, separating the
// interleaved checkpoint lines from the run lines.
func splitShardStream(t *testing.T, lines []string) (service.JobHeader, []string, []service.CheckpointLine, service.JobTrailer) {
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
	var raw []string
	var cks []service.CheckpointLine
	for _, l := range lines[1 : len(lines)-1] {
		var probe struct {
			Checkpoint bool `json:"checkpoint"`
		}
		if err := json.Unmarshal([]byte(l), &probe); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		if probe.Checkpoint {
			var ck service.CheckpointLine
			if err := json.Unmarshal([]byte(l), &ck); err != nil {
				t.Fatalf("checkpoint line %q: %v", l, err)
			}
			cks = append(cks, ck)
			continue
		}
		raw = append(raw, l)
	}
	return hdr, raw, cks, tr
}

// referenceLines runs the full, unchunked job and returns its run
// lines keyed by index — the bytes every chunk of it must reproduce.
func chunkReference(t *testing.T, url string, req service.JobRequest) map[int]string {
	t.Helper()
	status, lines := postJob(t, url, req)
	if status != http.StatusOK {
		t.Fatalf("reference job: status %d: %v", status, lines)
	}
	_, raw, runs, tr := parseStream(t, lines)
	if !tr.Done || tr.Err != "" {
		t.Fatalf("reference trailer: %+v", tr)
	}
	want := make(map[int]string, len(raw))
	for i, l := range raw {
		want[runs[i].Index] = l
	}
	return want
}

// TestServiceChunkJob executes a campaign as chunks — contiguous
// offset/count windows and a scattered pick — against a shard-mode
// server and verifies every run line is byte-identical to the
// unchunked job's line for the same global index.
func TestServiceChunkJob(t *testing.T) {
	_, ts := newServer(t, service.Config{ShardMode: true})
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	const runs, cycles = 8, 400
	req := service.JobRequest{Spec: src, Runs: runs, Cycles: cycles}
	want := chunkReference(t, ts.URL, req)

	chunks := []service.ChunkRequest{
		{Offset: 0, Count: 3},
		{Offset: 3, Count: 3},
		{Offset: 6, Count: 2},
		{Pick: []int{1, 4, 7}},
	}
	for _, c := range chunks {
		creq := req
		creq.Chunk = &c
		status, lines := postJob(t, ts.URL, creq)
		if status != http.StatusOK {
			t.Fatalf("chunk %+v: status %d: %v", c, status, lines)
		}
		hdr, raw, _, tr := splitShardStream(t, lines)
		size := c.Count
		if len(c.Pick) > 0 {
			size = len(c.Pick)
		}
		if hdr.Runs != size || hdr.TotalRuns != runs {
			t.Errorf("chunk %+v header: runs %d (want %d), total %d (want %d)", c, hdr.Runs, size, hdr.TotalRuns, runs)
		}
		if !tr.Done || tr.Err != "" || tr.Summary.Runs != size {
			t.Errorf("chunk %+v trailer: %+v", c, tr)
		}
		if len(raw) != size {
			t.Fatalf("chunk %+v: %d run lines, want %d", c, len(raw), size)
		}
		seen := map[int]bool{}
		for _, l := range raw {
			var rl service.RunLine
			if err := json.Unmarshal([]byte(l), &rl); err != nil {
				t.Fatal(err)
			}
			if seen[rl.Index] {
				t.Fatalf("chunk %+v: run %d streamed twice", c, rl.Index)
			}
			seen[rl.Index] = true
			if l != want[rl.Index] {
				t.Errorf("chunk %+v run %d: line differs from unchunked job:\n chunk: %s\n full:  %s", c, rl.Index, l, want[rl.Index])
			}
		}
	}
}

// TestServiceChunkCheckpointStream asks a shard for streamed
// checkpoints and verifies they interleave with results: global run
// indices, increasing cycles per run, non-empty machine state, none at
// a run's budget (a finished run's result line supersedes its
// retirement snapshot) — and that their presence does not perturb the
// result lines. A chunk whose runs are shorter than the checkpoint
// period streams no checkpoint line at all.
func TestServiceChunkCheckpointStream(t *testing.T) {
	_, ts := newServer(t, service.Config{ShardMode: true, CheckpointCycles: 64})
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	const runs, cycles = 6, 400
	req := service.JobRequest{Spec: src, Runs: runs, Cycles: cycles}
	want := chunkReference(t, ts.URL, req)

	creq := req
	creq.Chunk = &service.ChunkRequest{Offset: 2, Count: 4}
	creq.StreamCheckpoints = true
	status, lines := postJob(t, ts.URL, creq)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, lines)
	}
	_, raw, cks, tr := splitShardStream(t, lines)
	if !tr.Done || tr.Err != "" {
		t.Fatalf("trailer: %+v", tr)
	}
	if len(cks) == 0 {
		t.Fatal("no checkpoint lines streamed")
	}
	last := map[int]int64{}
	for _, ck := range cks {
		if ck.Index < 2 || ck.Index >= 2+4 {
			t.Errorf("checkpoint for run %d, outside chunk [2,6)", ck.Index)
		}
		if ck.Cycle <= last[ck.Index] || ck.Cycle > cycles {
			t.Errorf("run %d: checkpoint cycle %d after %d", ck.Index, ck.Cycle, last[ck.Index])
		}
		if ck.Cycle == cycles {
			t.Errorf("run %d: retirement checkpoint streamed at its budget %d", ck.Index, cycles)
		}
		last[ck.Index] = ck.Cycle
		if len(ck.State) == 0 {
			t.Errorf("run %d: empty checkpoint state", ck.Index)
		}
	}
	for _, l := range raw {
		var rl service.RunLine
		if err := json.Unmarshal([]byte(l), &rl); err != nil {
			t.Fatal(err)
		}
		if l != want[rl.Index] {
			t.Errorf("run %d: line differs from unchunked job with checkpoints on:\n chunk: %s\n full:  %s", rl.Index, l, want[rl.Index])
		}
	}

	short := service.JobRequest{Spec: machines.Counter(), Runs: 64, Cycles: 50,
		Chunk: &service.ChunkRequest{Offset: 0, Count: 64}, StreamCheckpoints: true}
	status, lines = postJob(t, ts.URL, short)
	if status != http.StatusOK {
		t.Fatalf("short chunk: status %d: %v", status, lines)
	}
	_, raw, cks, tr = splitShardStream(t, lines)
	if !tr.Done || tr.Err != "" || len(raw) != 64 {
		t.Fatalf("short chunk: trailer %+v, %d run lines", tr, len(raw))
	}
	if len(cks) != 0 {
		t.Errorf("50-cycle runs under a 64-cycle checkpoint period streamed %d checkpoint lines, want 0", len(cks))
	}
}

// TestLineIndex pins the run-line prefix a coordinator classifies
// chunk streams by: every rendered run line starts {"index":N, — so
// reordering RunLine's fields fails here — and nothing else a stream
// carries does.
func TestLineIndex(t *testing.T) {
	for _, i := range []int{0, 7, 1 << 20} {
		for name, r := range map[string]campaign.Result{
			"plain":     {Index: i, Name: "job", Cycles: 50, Digest: "d"},
			"grouped":   {Index: i, Name: "job", Group: "g", Cycles: 50, Digest: "d"},
			"error":     {Index: i, Name: "job", Err: errors.New("boom")},
			"activated": {Index: i, Name: "job", Activated: []int64{3, 4}},
		} {
			data, err := json.Marshal(service.ResultLine(r))
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := service.LineIndex(data); !ok || got != i {
				t.Errorf("%s line %s: LineIndex = %d, %v; want %d, true", name, data, got, ok, i)
			}
		}
	}

	not := map[string]any{
		"checkpoint": service.CheckpointLine{Checkpoint: true, Index: 3, Cycle: 64, State: []byte{1}},
		"trailer":    service.JobTrailer{Done: true},
		"header":     service.JobHeader{Job: "j1", Runs: 4},
	}
	for name, v := range not {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := service.LineIndex(data); ok {
			t.Errorf("%s line %s: LineIndex = %d, true; want false", name, data, i)
		}
	}
	for _, line := range []string{
		``, `{`, `{"index":`, `{"index":7`, `{"index":,`, `{"index":x7,`, `{"index":-7,`,
		`{"index":7x,`, `{"index":07,`, `{"index": 7,`, `{"index":99999999999999999999999,`,
	} {
		if i, ok := service.LineIndex([]byte(line)); ok {
			t.Errorf("LineIndex(%q) = %d, true; want false", line, i)
		}
	}
}

// TestServiceChunkWarm replays a streamed checkpoint back as a warm
// entry — the coordinator's re-dispatch move — and verifies the
// warm-started run still produces the exact line a cold run does.
func TestServiceChunkWarm(t *testing.T) {
	_, ts := newServer(t, service.Config{ShardMode: true, CheckpointCycles: 64})
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	const runs, cycles = 4, 400
	req := service.JobRequest{Spec: src, Runs: runs, Cycles: cycles}
	want := chunkReference(t, ts.URL, req)

	creq := req
	creq.Chunk = &service.ChunkRequest{Offset: 0, Count: runs}
	creq.StreamCheckpoints = true
	status, lines := postJob(t, ts.URL, creq)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, lines)
	}
	_, _, cks, _ := splitShardStream(t, lines)
	if len(cks) == 0 {
		t.Fatal("no checkpoint lines to warm-start from")
	}

	// Re-dispatch the checkpointed run's singleton chunk, warm.
	ck := cks[len(cks)-1]
	wreq := req
	wreq.Chunk = &service.ChunkRequest{Pick: []int{ck.Index}}
	wreq.Warm = []service.WarmEntry{{Run: ck.Index, Cycle: ck.Cycle, State: ck.State}}
	status, lines = postJob(t, ts.URL, wreq)
	if status != http.StatusOK {
		t.Fatalf("warm chunk: status %d: %v", status, lines)
	}
	_, raw, _, tr := splitShardStream(t, lines)
	if !tr.Done || tr.Err != "" || len(raw) != 1 {
		t.Fatalf("warm chunk: trailer %+v, %d run lines", tr, len(raw))
	}
	if raw[0] != want[ck.Index] {
		t.Errorf("run %d: warm-started line differs from cold run:\n warm: %s\n cold: %s", ck.Index, raw[0], want[ck.Index])
	}

	// A warm entry for a run outside the chunk's partition is a caller
	// bug, rejected up front.
	bad := wreq
	bad.Warm = []service.WarmEntry{{Run: ck.Index + 1, Cycle: ck.Cycle, State: ck.State}}
	if status, _ := postJob(t, ts.URL, bad); status != http.StatusBadRequest {
		t.Errorf("warm entry outside partition: status %d, want 400", status)
	}
}

// TestServiceShardGate pins the protocol boundary: a server not
// started with -shard refuses chunk, stream_checkpoints and warm, and
// a shard rejects malformed chunks.
func TestServiceShardGate(t *testing.T) {
	_, plain := newServer(t, service.Config{})
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	base := service.JobRequest{Spec: src, Runs: 4, Cycles: 100}

	for name, mutate := range map[string]func(*service.JobRequest){
		"chunk":              func(r *service.JobRequest) { r.Chunk = &service.ChunkRequest{Offset: 0, Count: 2} },
		"stream_checkpoints": func(r *service.JobRequest) { r.StreamCheckpoints = true },
		"warm":               func(r *service.JobRequest) { r.Warm = []service.WarmEntry{{Run: 0, Cycle: 1}} },
	} {
		req := base
		mutate(&req)
		if status, _ := postJob(t, plain.URL, req); status != http.StatusBadRequest {
			t.Errorf("%s on a non-shard server: status %d, want 400", name, status)
		}
	}

	_, shard := newServer(t, service.Config{ShardMode: true})
	for name, c := range map[string]service.ChunkRequest{
		"zero count":     {Offset: 0, Count: 0},
		"negative start": {Offset: -1, Count: 2},
		"past the end":   {Offset: 3, Count: 2},
		"bad pick":       {Pick: []int{0, 0}},
	} {
		req := base
		req.Chunk = &c
		if status, _ := postJob(t, shard.URL, req); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
}
