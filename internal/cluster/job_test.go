package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/service"
)

// TestCoordJobWarmBounded: the warm-start feed holds snapshots of
// undelivered runs only. A run's entry goes when its line merges, a
// later snapshot of a merged run — a slow duplicate stream's — is
// ignored, and the whole feed goes when the job ends.
func TestCoordJobWarmBounded(t *testing.T) {
	j := newCoordJob(&service.Plan{Header: service.JobHeader{Runs: 2}}, nil, "")
	ck := func(run int, cycle int64) service.CheckpointLine {
		return service.CheckpointLine{Checkpoint: true, Index: run, Cycle: cycle, State: []byte{byte(cycle)}}
	}
	j.noteWarm(ck(0, 64))
	j.noteWarm(ck(1, 64))
	if got := j.warmFor([]int{0, 1}); len(got) != 2 {
		t.Fatalf("warm entries before any merge: %+v", got)
	}

	j.setLine(0, []byte(`{"index":0}`))
	j.noteWarm(ck(0, 128))
	if got := j.warmFor([]int{0}); len(got) != 0 {
		t.Errorf("merged run 0 still has warm entries: %+v", got)
	}
	if got := j.warmFor([]int{1}); len(got) != 1 || got[0].Cycle != 64 {
		t.Errorf("undelivered run 1 lost its warm entry: %+v", got)
	}
	j.noteWarm(ck(2, 64)) // outside the job: ignored
	if len(j.warm) != 1 {
		t.Errorf("warm feed holds %d entries, want 1 (run 1)", len(j.warm))
	}

	j.dropWarm()
	if j.warm != nil {
		t.Errorf("warm feed retained after the job ended: %+v", j.warm)
	}
}

// TestStreamChunkCutLine: a shard stream cut mid-line leaves a
// fragment that starts like a run line. Run lines are classified by
// their prefix alone, so the fragment must still never merge; a last
// line that lost only its newline is whole and does. The checkpoint
// line ahead of them, rendered as a shard renders it, feeds the
// warm-start map until its run merges.
func TestStreamChunkCutLine(t *testing.T) {
	const line0 = `{"index":0,"name":"job","cycles":50,"mem_reads":0,"mem_writes":50,"digest":"d0"}`
	const line1 = `{"index":1,"name":"job","cycles":50,"mem_reads":0,"mem_writes":50,"digest":"d1"}`
	ck, err := json.Marshal(service.CheckpointLine{Checkpoint: true, Index: 1, Cycle: 32, State: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		tail   string
		merged int
	}{
		"mid-line":        {tail: line1[:30], merged: 1},
		"missing newline": {tail: line1, merged: 2},
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				fmt.Fprintf(w, "{\"job\":\"j1\",\"runs\":2}\n%s\n%s\n%s", ck, line0, tc.tail)
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler)
			}))
			defer ts.Close()
			c, err := New(Config{Shards: []string{ts.URL}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			j := newCoordJob(&service.Plan{Header: service.JobHeader{Runs: 2}}, c.shards, "")

			err = c.streamChunk(context.Background(), c.shards[0], j, []int{0, 1})
			if _, ok := err.(transportError); !ok {
				t.Errorf("cut stream: err %v, want a transport error", err)
			}
			if got := len(j.undelivered([]int{0, 1})); 2-got != tc.merged {
				t.Errorf("%d runs merged, want %d", 2-got, tc.merged)
			}
			if j.merged[0] == nil || string(j.merged[0]) != line0 {
				t.Errorf("run 0 merged as %q", j.merged[0])
			}
			if warm := j.warmFor([]int{1}); len(warm) != 2-tc.merged {
				t.Errorf("run 1 warm entries %+v with %d runs merged", warm, tc.merged)
			}
		})
	}
}
