package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
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
