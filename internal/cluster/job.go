package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// coordJob is one campaign being merged: the reorder buffer chunk
// streams land in, the log followers stream from, and the latest
// streamed checkpoint per undelivered run (the warm-start feed for
// re-dispatch — a run's entry goes when its line merges, and the map
// when the job ends).
// Exactly-once delivery is the setLine dedup: a slow shard and its
// replacement may both deliver a run, but only the first line lands,
// and since both are byte-identical by the shard protocol's contract
// it does not matter which.
type coordJob struct {
	// The plan's request (shards rebuild the runs from it) and header —
	// copied out, so a retained job does not pin the runs the planner
	// built to size it.
	req    service.JobRequest
	header service.JobHeader
	pref   []*shard // ring preference order for the job's route key
	trace  string   // fabric-wide trace id, propagated to every chunk

	// log holds the merged stream: run lines in strict global index
	// order, then the end. It is the service's LineLog — what a durable
	// asimd's resume streams follow too — kept in memory only.
	log *service.LineLog

	mu       sync.Mutex
	merged   [][]byte                  // run lines by global index; nil = not yet merged
	released int                       // merged[:released] are in the log
	warm     map[int]service.WarmEntry // latest checkpoint per undelivered run; nil until the first
}

func newCoordJob(p *service.Plan, pref []*shard, trace string) *coordJob {
	return &coordJob{
		req:    p.Req,
		header: p.Header,
		pref:   pref,
		trace:  trace,
		log:    service.NewLineLog(p.Header.Runs),
		merged: make([][]byte, p.Header.Runs),
	}
}

func (j *coordJob) n() int { return len(j.merged) }

// setLine merges one run line, releasing it — and any run of
// already-merged successors it unblocks — into the log, so the log
// only ever grows in index order. Reports whether the line was new.
func (j *coordJob) setLine(i int, line []byte) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < 0 || i >= len(j.merged) || j.merged[i] != nil {
		return false
	}
	j.merged[i] = line
	delete(j.warm, i)
	from := j.released
	for j.released < len(j.merged) && j.merged[j.released] != nil {
		j.released++
	}
	j.log.Append(j.merged[from:j.released]...)
	return true
}

// noteWarm keeps the latest checkpoint per undelivered run; a run
// already merged — say, by a faster stream than the one still sending
// its snapshots — needs none. The coordinator never inspects the state
// bytes — validity is the re-dispatched shard's problem (a bad
// snapshot cold-starts the run there).
func (j *coordJob) noteWarm(ck service.CheckpointLine) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ck.Index < 0 || ck.Index >= len(j.merged) || j.merged[ck.Index] != nil {
		return
	}
	if prev, ok := j.warm[ck.Index]; ok && prev.Cycle >= ck.Cycle {
		return
	}
	if j.warm == nil {
		j.warm = map[int]service.WarmEntry{}
	}
	j.warm[ck.Index] = service.WarmEntry{Run: ck.Index, Cycle: ck.Cycle, State: ck.State}
}

// dropWarm releases the job's warm-start feed once no chunk can be
// re-dispatched: a retained finished job keeps its lines, not its
// snapshots.
func (j *coordJob) dropWarm() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.warm = nil
}

// undelivered filters pick down to the runs still missing a line.
func (j *coordJob) undelivered(pick []int) []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	var left []int
	for _, i := range pick {
		if j.merged[i] == nil {
			left = append(left, i)
		}
	}
	return left
}

// warmFor collects the warm entries available for a pick.
func (j *coordJob) warmFor(pick []int) []service.WarmEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	var warm []service.WarmEntry
	for _, i := range pick {
		if w, ok := j.warm[i]; ok {
			warm = append(warm, w)
		}
	}
	return warm
}

// runJob executes a planned job to completion in the background,
// holding the admission slot the handler acquired. Detaching
// execution from the client connection keeps cluster semantics
// aligned with durable single-node asimd: a client that disconnects
// mid-merge abandons its stream, not the job, and resumes from the
// job's log.
func (c *Coordinator) runJob(j *coordJob) {
	defer c.fe.Release()
	c.fe.JobsActive.Add(1)
	defer c.fe.JobsActive.Add(-1)
	t0 := time.Now()

	ctx, cancel := context.WithTimeout(context.Background(), c.fe.Deadline(j.req.DeadlineMS))
	defer cancel()
	ctx = telemetry.WithTrace(ctx, j.trace)

	j.pref[0].jobsRouted.Add(1)

	// Fan the campaign out as contiguous ChunkRuns-sized windows. Each
	// chunk goroutine runs its own dispatch-retry loop; concurrency is
	// bounded by the per-shard in-flight semaphores, not here.
	size := c.cfg.chunkRuns()
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	for lo := 0; lo < j.n(); lo += size {
		n := size
		if lo+n > j.n() {
			n = j.n() - lo
		}
		wg.Add(1)
		go func(pick []int) {
			defer wg.Done()
			if err := c.runChunk(ctx, j, pick); err != nil {
				select {
				case errc <- err:
				default:
				}
				cancel()
			}
		}(campaign.Range(lo, n))
	}
	wg.Wait()
	j.dropWarm()
	var execErr error
	select {
	case execErr = <-errc:
	default:
	}

	// Ending the log releases every follower to its trailer, which
	// summarizes the lines the log holds — on failure, the index-ordered
	// prefix that was delivered, not stragglers merged past a gap.
	outcome, errText := "completed", ""
	if execErr != nil {
		outcome, errText = "failed", execErr.Error()
		c.fe.JobsFailed.Add(1)
	} else {
		c.fe.JobsCompleted.Add(1)
	}
	dur := time.Since(t0)
	c.fe.BusyNanos.Add(dur.Nanoseconds())
	c.fe.JobLatency.Observe(dur.Seconds())
	c.fe.Tracer.Record(telemetry.Timed(telemetry.Span{
		Trace: j.trace, Job: j.header.Job, Name: "job", Runs: j.n(), Err: errText}, t0))
	c.fe.Log.Info("job finished", "job", j.header.Job, "trace", j.trace,
		"outcome", outcome, "runs", j.n(), "dur", dur)
	j.log.Finish(errText)
	c.retire(j.header.Job)
}

// transportError marks dispatch failures that indict the shard — a
// refused connection, a reset stream, a missing trailer, a 5xx or a
// 429 — and are worth another shard. Any other error is the job's: an
// engine error in a shard's trailer, or a 4xx, would only be
// reproduced by a retry, so it fails the job as is.
type transportError struct{ err error }

func (e transportError) Error() string { return e.err.Error() }

// runChunk drives one chunk to full delivery: acquire a shard by
// preference, stream the chunk, and if the stream dies early,
// re-dispatch whatever is still undelivered — warm-started from the
// checkpoints the dead stream managed to deliver — to the next
// willing shard. The chunk's state machine is: dispatched → streaming
// → (delivered | shard failed → re-dispatched, up to Retries times |
// job failed).
func (c *Coordinator) runChunk(ctx context.Context, j *coordJob, pick []int) error {
	for attempt := 0; ; attempt++ {
		waitStart := time.Now()
		sh, waited, err := c.acquireShard(ctx, j.pref)
		if waited {
			// Time spent with every preferred shard busy or down is the
			// job's too: its own span, outside the chunk span.
			sp := telemetry.Span{Trace: j.trace, Job: j.header.Job, Name: "chunk.wait",
				Attempt: attempt + 1, Runs: len(pick)}
			if sh != nil {
				sp.Shard = sh.url
			}
			if err != nil {
				sp.Err = err.Error()
			}
			c.fe.Tracer.Record(telemetry.Timed(sp, waitStart))
		}
		if err != nil {
			return fmt.Errorf("chunk [%d..%d]: %v", pick[0], pick[len(pick)-1], err)
		}
		if attempt > 0 {
			sh.chunksRedispatched.Add(1)
			c.met.chunksRedispatched.Add(1)
			c.fe.Log.Warn("chunk redispatched", "job", j.header.Job, "trace", j.trace,
				"shard", sh.url, "attempt", attempt+1, "runs", len(pick))
		}
		sh.chunksDispatched.Add(1)
		c.met.chunksDispatched.Add(1)
		start := time.Now()
		err = c.streamChunk(ctx, sh, j, pick)
		sh.release()
		c.chunkLatency.ObserveSince(start)
		sp := telemetry.Span{Trace: j.trace, Job: j.header.Job, Name: "chunk",
			Shard: sh.url, Attempt: attempt + 1, Runs: len(pick)}
		if err != nil {
			sp.Err = err.Error()
		}
		c.fe.Tracer.Record(telemetry.Timed(sp, start))

		left := j.undelivered(pick)
		if len(left) == 0 {
			// Every run landed; a trailing stream error (e.g. the shard
			// died after its last result) is moot.
			sh.noteOK()
			sh.chunksCompleted.Add(1)
			c.met.chunksCompleted.Add(1)
			return nil
		}
		if err == nil {
			err = transportError{fmt.Errorf("stream ended with %d of %d runs undelivered", len(left), len(pick))}
		}
		if _, isTransport := err.(transportError); !isTransport {
			// The request's fault, or the campaign's: the shard is
			// fine, so its health and failure books stay untouched.
			return fmt.Errorf("chunk [%d..%d]: %v", pick[0], pick[len(pick)-1], err)
		}
		if ctx.Err() != nil {
			// The job's deadline, or a sibling chunk failing the job,
			// cut this stream: no evidence against the shard either.
			return fmt.Errorf("chunk [%d..%d] on %s: %v", pick[0], pick[len(pick)-1], sh.url, ctx.Err())
		}
		// Couple dispatch failures into health: a SIGKILLed worker is
		// off the routing table after HealthFails in-flight chunks
		// die, without waiting out a probe cycle.
		sh.failures.Add(1)
		sh.noteFailure(c.cfg.healthFails())
		if attempt >= c.cfg.retries() {
			return fmt.Errorf("chunk [%d..%d]: %v (giving up after %d attempts)", pick[0], pick[len(pick)-1], err, attempt+1)
		}
		pick = left
	}
}

// acquireShard claims an in-flight slot on the first healthy shard in
// preference order. When none is free it sleeps until a slot is
// released or a shard readmitted anywhere in the fabric, then looks
// again — until the job's deadline expires. waited reports whether it
// slept. Spilling past the home shard trades cache affinity for
// progress — an idle second-choice beats a queue on the first.
func (c *Coordinator) acquireShard(ctx context.Context, pref []*shard) (sh *shard, waited bool, err error) {
	for {
		freed := c.freed.wait()
		for _, s := range pref {
			if s.isHealthy() && s.tryAcquire() {
				return s, waited, nil
			}
		}
		waited = true
		select {
		case <-ctx.Done():
			return nil, true, ctx.Err()
		case <-freed:
		}
	}
}

// streamChunk posts one chunk-scoped job to a shard and consumes its
// NDJSON stream: run lines merge into the job (byte-for-byte — the
// shard rendered them under global indices already), checkpoint lines
// feed the warm-start map, and the trailer closes the books. Any
// transport-level defect is a transportError so the caller re-routes;
// a trailer carrying an engine error, and a 4xx other than 429, are
// returned plain.
func (c *Coordinator) streamChunk(ctx context.Context, sh *shard, j *coordJob, pick []int) error {
	creq := j.req
	creq.Chunk = &service.ChunkRequest{Pick: append([]int(nil), pick...)}
	creq.StreamCheckpoints = true
	creq.Warm = j.warmFor(pick)
	body, err := json.Marshal(creq)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return transportError{err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(telemetry.TraceHeader, j.trace)
	resp, err := c.client.Do(hreq)
	if err != nil {
		return transportError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var body struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &body) != nil || body.Error == "" {
			body.Error = string(bytes.TrimSpace(raw))
		}
		err := fmt.Errorf("shard %s answered %d: %s", sh.url, resp.StatusCode, body.Error)
		// 429 means busy and 5xx means broken — another shard may do
		// better. Any other 4xx is the shard refusing this request (it
		// applies its own -max-runs, -max-cycles and -max-body to the
		// full run list): every healthy shard would refuse it alike.
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			return transportError{err}
		}
		return err
	}

	// The reader starts small and grows only as far as the longest line
	// a shard may send. Lines are classified by their leading bytes:
	// run lines merge as is, checkpoint lines are decoded for the
	// warm-start feed, and anything else must be the trailer.
	var lines lineSplit
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, service.MaxStreamLine)
	sc.Split(lines.split)
	first := true
	var trailer *service.JobTrailer
	for sc.Scan() {
		line := sc.Bytes()
		if first {
			first = false // the shard's chunk header; the merged stream has its own
			continue
		}
		if i, ok := service.LineIndex(line); ok && (!lines.tail || json.Valid(line)) {
			if j.setLine(i, bytes.Clone(line)) {
				c.met.runsMerged.Add(1)
			}
			continue
		}
		if bytes.HasPrefix(line, checkpointPrefix) {
			var ck service.CheckpointLine
			if err := json.Unmarshal(line, &ck); err == nil {
				j.noteWarm(ck)
			}
			continue
		}
		var tr service.JobTrailer
		if err := json.Unmarshal(line, &tr); err != nil || !tr.Done {
			return transportError{fmt.Errorf("unparseable stream line %.80q", line)}
		}
		trailer = &tr
	}
	if err := sc.Err(); err != nil {
		return transportError{err}
	}
	if trailer == nil {
		return transportError{fmt.Errorf("stream ended without a trailer")}
	}
	if trailer.Err != "" {
		return fmt.Errorf("shard %s: %s", sh.url, trailer.Err)
	}
	return nil
}

// checkpointPrefix is how a service.CheckpointLine renders its leading
// discriminator field; run lines, headers and trailers never start so.
var checkpointPrefix = []byte(`{"checkpoint":true`)

// lineSplit is bufio.ScanLines for a stream that may be cut: a line is
// whole once its newline arrived, and tail records that the last token
// returned is instead the unterminated fragment a cut stream leaves —
// a line only if it parses.
type lineSplit struct{ tail bool }

func (s *lineSplit) split(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		s.tail = true
		return len(data), data, nil
	}
	return 0, nil, nil
}
