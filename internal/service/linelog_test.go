package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/sim"
)

// TestLineLogFollowers: one writer appending while several followers
// stream from different offsets — each follower receives exactly the
// log's lines from its offset on, in order, then sees the end; a
// follower whose context is cancelled leaves without the end.
func TestLineLogFollowers(t *testing.T) {
	const lines, followers = 500, 6
	fe := NewFrontEnd(Limits{}, nil, nil)
	lg := NewLineLog(0)

	var wg sync.WaitGroup
	for f := range followers {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			next, ended := lg.follow(context.Background(), from, fe.stream(rec, "j1", "", nil))
			if !ended || next != lines {
				t.Errorf("follower from %d: next=%d ended=%v", from, next, ended)
			}
			var want strings.Builder
			for i := from; i < lines; i++ {
				fmt.Fprintf(&want, "{\"index\":%d}\n", i)
			}
			if got := rec.Body.String(); got != want.String() {
				t.Errorf("follower from %d: stream differs from the log's lines %d..%d", from, from, lines)
			}
		}(f * 90)
	}
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan bool)
	go func() {
		_, ended := lg.follow(ctx, lines+1, fe.stream(httptest.NewRecorder(), "j1", "", nil))
		gone <- ended
	}()

	for i := range lines {
		lg.Append([]byte(fmt.Sprintf(`{"index":%d}`, i)))
	}
	cancel()
	if <-gone {
		t.Error("cancelled follower reported the log's end")
	}
	lg.Finish("boom")
	lg.Append([]byte(`{"index":-1}`)) // after the end: dropped
	wg.Wait()

	if tr := lg.Trailer(); !tr.Done || tr.Err != "boom" || tr.Summary.Runs != lines {
		t.Errorf("trailer %+v", tr)
	}
}

// TestLineLogTrailerFold: after every prefix of appends the kept
// summary equals campaign.Summarize over the lines' results, as a
// Trailer that re-decodes every line with encoding/json computes it —
// runtime errors, fault activations, a divergent group, an errored
// line that must not become its group's reference, a name only
// json.Unmarshal reads (escaped) and a line nothing reads — and a
// Trailer with no new lines allocates nothing.
func TestLineLogTrailerFold(t *testing.T) {
	mem := func(r, w int64) sim.Stats {
		return sim.Stats{MemOps: []sim.MemOpStats{{Reads: r, Writes: w}, {Reads: 1}}}
	}
	results := []campaign.Result{
		{Name: "job#0", Group: "a", Cycles: 50, Stats: mem(3, 4), Digest: "d0"},
		{Name: "job#1", Group: "b", Cycles: 7, Stats: mem(1, 0), Digest: "dx", Err: errors.New("runtime error: bad selector")},
		{Name: "job#2", Group: "b", Cycles: 50, Stats: mem(0, 9), Digest: "d1"},
		{Name: "job#3", Group: "a", Cycles: 50, Stats: mem(3, 4), Digest: "d0", Activated: []int64{2, 3}},
		{Name: `job<4> "naïve"`, Group: "b", Cycles: 50, Stats: mem(2, 2), Digest: "d2"},
		{Name: "job#5", Cycles: 12, Stats: mem(5, 5), Digest: "d9"},
		{Name: "job#6", Group: "b", Cycles: 50, Stats: mem(0, 9), Digest: "d1", Activated: []int64{1}},
	}
	lg := NewLineLog(0)
	if got := lg.Trailer().Summary; got != (campaign.Summary{}) {
		t.Fatalf("empty log summarizes to %+v", got)
	}
	var lines [][]byte
	var logged []campaign.Result // results whose lines are in lines
	check := func(line []byte, r *campaign.Result) {
		t.Helper()
		lines = append(lines, line)
		if r != nil {
			logged = append(logged, *r)
		}
		lg.Append(line)
		got := lg.Trailer().Summary
		if want := decodedSummary(lines); got != want {
			t.Fatalf("after %d lines: folded %+v, re-decoded %+v", len(lines), got, want)
		}
		if want := campaign.Summarize(logged, 0); got != want {
			t.Fatalf("after %d lines: folded %+v, results summarize to %+v", len(lines), got, want)
		}
	}
	for i := range results {
		r := &results[i]
		r.Index, r.Stats.Cycles = i, r.Cycles
		line := ResultLine(*r).appendJSON(nil)
		if _, scanned := scanRunLine(string(line)); scanned == (i == 4) {
			t.Fatalf("line %d: scanned %v: %s", i, scanned, line)
		}
		check(line, r)
		if i == 2 {
			check([]byte(`{"index":3,"name":`), nil) // torn: skipped
		}
	}
	// No engine renders a negative activation count; a line carrying
	// one is no fault run, as the re-decoding trailer had it.
	lines = append(lines, []byte(`{"index":7,"name":"job#7","cycles":1,"mem_reads":0,"mem_writes":0,"digest":"d7","activated":-2}`))
	lg.Append(lines[len(lines)-1])
	if got, want := lg.Trailer().Summary, decodedSummary(lines); got != want {
		t.Fatalf("negative activations: folded %+v, re-decoded %+v", got, want)
	}
	if s := lg.Trailer().Summary; s.Runs != 8 || s.Errors != 1 || s.Divergences != 1 || s.FaultRuns != 2 || s.FaultsActivated != 6 {
		t.Errorf("final summary %+v", s)
	}
	if a := testing.AllocsPerRun(100, func() { lg.Trailer() }); a != 0 {
		t.Errorf("a Trailer with no new lines allocates %v times", a)
	}
}

// decodedSummary is the summary a trailer carried when it re-decoded
// every line: json.Unmarshal each one, rebuild the result it renders
// (totals in one synthetic memory) and summarize them all.
func decodedSummary(lines [][]byte) campaign.Summary {
	var results []campaign.Result
	for _, line := range lines {
		var l RunLine
		if json.Unmarshal(line, &l) != nil {
			continue
		}
		r := campaign.Result{
			Index: l.Index, Name: l.Name, Group: l.Group, Cycles: l.Cycles, Digest: l.Digest,
			Stats: sim.Stats{Cycles: l.Cycles, MemOps: []sim.MemOpStats{{Reads: l.MemReads, Writes: l.MemWrites}}},
		}
		if l.Activated > 0 {
			r.Activated = []int64{l.Activated}
		}
		if l.Err != "" {
			r.Err = errors.New(l.Err)
		}
		results = append(results, r)
	}
	return campaign.Summarize(results, 0)
}

// TestResumeAfterDropIsUnknown opens, deterministically, the window
// between a job's log ending and its run unregistering that log: the
// job completes through persistDone, a follower that delivered its last
// line drops the records, and only then would the run's deferred
// finishRun have unregistered the log. A resume in that window must
// find an unknown job, not replay the ended log in full.
func TestResumeAfterDropIsUnknown(t *testing.T) {
	s := New(Config{Store: durable.NewMemStore()})
	const id = "j1"
	if err := s.persistAdmit(id, JobRequest{Spec: "x", Runs: 1}); err != nil {
		t.Fatal(err)
	}
	lg := NewLineLog(0)
	s.runMu.Lock()
	s.running[id] = lg
	s.runMu.Unlock()
	s.persistDone(id, lg, nil)
	s.dropJob(id)
	if got, err := s.resumeLog(id, 0); err != nil || got != nil {
		t.Errorf("resume of a dropped job: log %p, err %v; want an unknown job", got, err)
	}
}
