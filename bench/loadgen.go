package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// clients is the closed loop's width: each client posts its next job
// only after the previous trailer arrived. Campaign submitters wait
// for their summary, so closed loop is the honest shape; two matches
// the cores the benchmark pins (see main).
const clients = 2

// spanHeader carries the benchmark-side parent span id from a caller
// to the handler wrapper around the callee, so traced spans link up
// without the program knowing about them.
const spanHeader = "X-Bench-Span"

// client is one keep-alive connection's worth of load. It is built to
// be quiet: the load generator shares a process (and a garbage
// collector) with the servers under test, so every byte it allocates
// per request is noise in their numbers. Bodies are marshalled before
// the clock starts, the line reader is reused, lines are counted with
// ReadSlice, and only the header and the trailer are decoded.
type client struct {
	hc  *http.Client
	url string
	br  *bufio.Reader
}

func newClient(baseURL string) *client {
	return &client{
		// A transport per client pins it to its own connection.
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		url: baseURL + "/v1/jobs",
		br:  bufio.NewReaderSize(nil, 64<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is what one job looked like from the client.
type outcome struct {
	err       error         // nil iff the response passed every oracle check
	total     time.Duration // POST sent → trailer line parsed
	firstLine time.Duration // POST sent → first run line
	cycles    int64         // trailer Summary.Cycles
}

var donePrefix = []byte(`{"done"`)

// post runs one job and checks the response against the job's oracle:
// 200, a header announcing the right run count, exactly that many run
// lines whose order-independent hash equals the interp oracle's (so
// every index is present once and every simulated statistic matches),
// and a done trailer without an error and with the expected cycles.
// trace, when non-zero, is the benchmark-side span id of this job: it
// names the job on the servers' own trace rings and parents the
// handler wrapper's span.
func (c *client) post(j *job, trace int64) (out outcome) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(j.body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != 0 {
		req.Header.Set(telemetry.TraceHeader, traceID(trace))
		req.Header.Set(spanHeader, strconv.FormatInt(trace, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer func() {
		// Drain so the connection goes back to the pool.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return out
	}
	c.br.Reset(resp.Body)

	line, err := c.br.ReadSlice('\n')
	if err != nil {
		out.err = fmt.Errorf("header line: %v", err)
		return out
	}
	var hdr service.JobHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		out.err = fmt.Errorf("header line: %v", err)
		return out
	}
	if hdr.Runs != j.req.Runs {
		out.err = fmt.Errorf("header announces %d runs, want %d", hdr.Runs, j.req.Runs)
		return out
	}

	var sum uint64
	lines := 0
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			out.err = fmt.Errorf("after %d run lines: %v", lines, err)
			return out
		}
		if bytes.HasPrefix(line, donePrefix) {
			break
		}
		if lines == 0 {
			out.firstLine = time.Since(start)
		}
		lines++
		sum += maphash.Bytes(lineSeed, line[:len(line)-1])
	}
	var tr service.JobTrailer
	if err := json.Unmarshal(line, &tr); err != nil {
		out.err = fmt.Errorf("trailer: %v", err)
		return out
	}
	out.total = time.Since(start)
	out.cycles = tr.Summary.Cycles
	switch {
	case !tr.Done || tr.Err != "":
		out.err = fmt.Errorf("trailer reports done=%v error=%q", tr.Done, tr.Err)
	case lines != j.req.Runs:
		out.err = fmt.Errorf("%d run lines, want %d", lines, j.req.Runs)
	case sum != j.lineSum:
		out.err = fmt.Errorf("run lines differ from the interp oracle's")
	case tr.Summary.Cycles != j.cycles || tr.Summary.Errors != 0:
		out.err = fmt.Errorf("trailer counts %d cycles and %d errors, oracle %d and 0", tr.Summary.Cycles, tr.Summary.Errors, j.cycles)
	}
	return out
}

func traceID(span int64) string { return "bench-" + strconv.FormatInt(span, 10) }

// passResult is one pass over a job list.
type passResult struct {
	wall     time.Duration
	outcomes []outcome // parallel to the job list
	failed   int
	firstErr error
}

// runPass drives jobs through the clients in closed loop: a shared
// cursor hands out the next job, so the work of a pass is fixed and
// the clients stay busy until it is gone. after, when non-nil, runs on
// the client's goroutine once each job completes (the traced pass
// hangs its span bookkeeping there).
func runPass(cs []*client, jobs []*job, rec *recorder, after func(c *client, i int, id int64, o outcome)) passResult {
	res := passResult{outcomes: make([]outcome, len(jobs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				var id int64
				var began time.Time
				if rec != nil {
					id, began = rec.newID(), time.Now()
				}
				o := c.post(jobs[i], id)
				res.outcomes[i] = o
				if rec != nil {
					rec.add(span{ID: id, Job: traceID(id), Name: "job", Start: began, Dur: time.Since(began)})
				}
				if after != nil {
					after(c, i, id, o)
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	for _, o := range res.outcomes {
		if o.err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = o.err
			}
		}
	}
	return res
}

// passMetrics reduces one pass to the end-to-end figures. A failed job
// counts as attempted but not completed and contributes to no latency
// figure — it misses every one.
type passMetrics struct {
	jobsPerS, cyclesPerS     float64
	jobP50, jobP90, firstP50 float64
}

func (r passResult) metrics() passMetrics {
	var total, first []float64
	var cycles int64
	for _, o := range r.outcomes {
		if o.err != nil {
			continue
		}
		total = append(total, ms(o.total))
		first = append(first, ms(o.firstLine))
		cycles += o.cycles
	}
	sort.Float64s(total)
	sort.Float64s(first)
	return passMetrics{
		jobsPerS:   float64(len(total)) / r.wall.Seconds(),
		cyclesPerS: float64(cycles) / r.wall.Seconds(),
		jobP50:     quantile(total, 0.50),
		jobP90:     quantile(total, 0.90),
		firstP50:   quantile(first, 0.50),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile reads the q-quantile off an ascending slice (nearest rank);
// 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
