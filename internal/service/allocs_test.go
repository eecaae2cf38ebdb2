package service

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/allocpin"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machines"
)

// discardWriter is a streaming ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Flush()                      {}

// TestExecuteAllocsPerBurst pins the served path's steady state: with
// the job's scratch reused, execute over one burst allocates a
// constant — its spans, its log record, the gang's shared statistics
// block and digest string — whether the burst carries 256 lines or
// 1024.
// A per-line allocation (a line buffer, a newline, a result copy) would
// add one object or more per extra line.
func TestExecuteAllocsPerBurst(t *testing.T) {
	allocpin.SkipUnderRace(t)
	spec, err := core.ParseString("counter", machines.Counter())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	// One worker and a gang as wide as the job: every job is one burst.
	// (Both sizes are above 255, so boxing the run count for the log
	// allocates on both sides.)
	s := New(Config{Engine: campaign.Engine{Workers: 1, GangSize: 1024}})
	out := s.fe.stream(&discardWriter{h: http.Header{}}, "j1", "", nil)
	scr := new(jobScratch)
	measure := func(n int) float64 {
		runs := campaign.Fleet("job", prog, n, 50)
		return allocpin.Least(func() {
			sum, err := s.execute(context.Background(), "j1", runs, nil, out, false, nil, scr)
			if err != nil || sum.Runs != n || sum.Errors != 0 {
				t.Fatalf("job of %d runs: %+v, %v", n, sum, err)
			}
		})
	}
	narrow, wide := measure(256), measure(1024)
	t.Logf("one burst allocates %.0f objects at 256 lines, %.0f at 1024", narrow, wide)
	if wide > narrow {
		t.Errorf("a 1024-line burst allocates %.0f objects, a 256-line one %.0f: a per-line allocation is back", wide, narrow)
	}
	if err := out.failed(); err != nil {
		t.Fatal(err)
	}
}
