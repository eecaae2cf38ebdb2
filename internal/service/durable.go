package service

// Durability wiring: how the serving layer uses the durable.Store.
//
// Every store-backed job leaves a trail of records under its id: the
// admitted request (written before the job can block in the queue),
// periodic machine-state checkpoints from the engine's Checkpointer
// hook, each delivered result line (the exact bytes, so replays are
// byte-identical), and a completion marker. Three consumers replay
// that trail:
//
//   - handleResume streams a dropped stream's remainder to a client
//     presenting a resume token (job id + lines already received). It
//     follows the job's LineLog; the trail is read only to seed a log
//     nobody holds in memory any more, once.
//   - completeJob finishes an interrupted campaign in the background,
//     skipping runs with stored results and warm-starting checkpointed
//     runs from their latest snapshot.
//   - Recover, called once at startup, re-admits every job the
//     previous process left without a completion marker.
//
// The invariant everything rides on: a result line is appended to the
// store before it is written to any client, cancelled runs are neither
// persisted nor streamed, and once the store refuses a result line
// neither it nor any later line of the job is streamed (the campaign
// is interrupted there; see Server.execute). So a client's delivered
// count is always a prefix of the stored result records, and a run
// either has a stored result (final, replayable) or will be
// re-executed — exactly once, never both.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// persistAdmit records the admitted request. A store that refuses it
// refuses the job: every later record of a job — its results, its
// resume token, its recovery — hangs off the admit record, so a job
// without one could stream but never be resumed. The front end answers
// 503 before any work (see FrontEnd.Admit), and whatever the store
// did keep of the job is dropped.
func (s *Server) persistAdmit(id string, req JobRequest) error {
	if s.store == nil {
		return nil
	}
	data, err := json.Marshal(req)
	if err == nil {
		err = s.store.Append(id, durable.Record{Kind: durable.KindAdmit, Data: data})
	}
	if err != nil {
		s.dropJob(id)
	}
	return err
}

// persistDone records the campaign's completion — empty data for
// success, the error string otherwise — and ends the job's log the
// same way (finishRun). Jobs abandoned mid-stream get no done record at all: that
// absence is what marks them resumable. A refused done record is
// logged and otherwise harmless: the job's results are stored, so the
// job reads as unfinished, and a restart's Recover re-admits it,
// finds every run's result stored, re-simulates nothing and writes
// the done record then (TestServiceLostDoneRecordSelfHeals).
func (s *Server) persistDone(id string, lg *LineLog, execErr error) {
	if s.store == nil {
		return
	}
	rec := durable.Record{Kind: durable.KindDone}
	if execErr != nil {
		rec.Data = []byte(execErr.Error())
	}
	if err := s.store.Append(id, rec); err != nil {
		s.fe.Log.Warn("job done record not stored", "job", id, "err", err)
	}
	s.finishRun(id, lg, string(rec.Data))
}

// dropJob discards a job's records once they can serve no resume.
func (s *Server) dropJob(id string) {
	if s.store != nil {
		_ = s.store.Drop(id)
	}
}

// errInterrupted ends the log of a run that stopped without a
// completion marker: its client went away, or the stored job could
// not be read back. The job itself is still resumable.
const errInterrupted = "job execution was interrupted; resume again"

// finishRun unregisters a run's log and then, unless it has already
// ended, ends it with msg. Unregistering comes first: once a log has
// ended, a follower may deliver its last line and drop the job's
// records, and a resume arriving after that must find neither the log
// nor the records — an unknown job — not replay the ended log in full.
func (s *Server) finishRun(id string, lg *LineLog, msg string) {
	s.runMu.Lock()
	if s.running[id] == lg {
		delete(s.running, id)
	}
	s.runMu.Unlock()
	lg.Finish(msg)
}

// ensureRunning returns the log of the job's executing campaign,
// starting a background completion if nothing is executing it, and
// reports whether it started one.
func (s *Server) ensureRunning(id string) (*LineLog, bool) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if lg, ok := s.running[id]; ok {
		return lg, false
	}
	lg := NewLineLog(0)
	s.running[id] = lg
	go s.completeJob(id, lg)
	return lg, true
}

// checkpointer is a job's engine Checkpointer hook, feeding up to two
// sinks with the same snapshot. idx, when set, remaps the engine's run
// indices to the full campaign's (a chunk job executes a partition, a
// background completion the unfinished remainder). With a store, every
// snapshot is persisted for crash recovery. With stream set, snapshots
// of runs short of their budget are also interleaved into the shard
// job's NDJSON stream, so a coordinator can warm-start re-dispatched
// chunks without sharing the shard's disk. A snapshot at the budget is
// a finished run's retirement, and its result line — next on the same
// stream — supersedes it. Checkpoint lines ride the same lineWriter as
// results — its mutex is what makes concurrent engine workers safe
// here — but are never persisted as lines and never count toward
// resume tokens.
type checkpointer struct {
	s      *Server
	job    string
	runs   []campaign.Run // the engine's runs, for their budgets
	idx    []int
	stream *lineWriter
}

func (c *checkpointer) Checkpoint(run int, cycle int64, state []byte) {
	finished := cycle >= c.runs[run].Cycles
	if c.idx != nil {
		run = c.idx[run]
	}
	if c.s.store != nil {
		err := c.s.store.Append(c.job, durable.Record{
			Kind: durable.KindCheckpoint, Run: int64(run), Cycle: cycle, Data: state,
		})
		if err != nil {
			c.s.met.checkpointErrors.Add(1)
		} else {
			c.s.met.checkpoints.Add(1)
		}
	}
	if c.stream != nil && !finished {
		// Marshal copies the state bytes before the engine reuses the
		// buffer; nothing here retains them.
		data, err := json.Marshal(CheckpointLine{Checkpoint: true, Index: run, Cycle: cycle, State: state})
		if err == nil && len(data) < MaxStreamLine {
			c.stream.raw(data)
		}
	}
}

// ckpt is a run's recoverable snapshot.
type ckpt struct {
	cycle int64
	state []byte
}

// jobState is one replay of a job's records, interpreted.
type jobState struct {
	admit   []byte         // the stored request JSON (nil: job unknown)
	lines   [][]byte       // result lines in delivery order
	results map[int64]bool // run indices that have a stored result
	cks     map[int64]ckpt // latest usable checkpoint per run
	done    bool
	doneErr string
}

func (s *Server) loadJobState(id string) (*jobState, error) {
	st := &jobState{results: map[int64]bool{}, cks: map[int64]ckpt{}}
	err := s.store.Replay(id, func(rec durable.Record) error {
		switch rec.Kind {
		case durable.KindAdmit:
			st.admit = append([]byte(nil), rec.Data...)
		case durable.KindResult:
			st.lines = append(st.lines, append([]byte(nil), rec.Data...))
			st.results[rec.Run] = true
		case durable.KindCheckpoint:
			if prev, ok := st.cks[rec.Run]; ok && prev.cycle >= rec.Cycle {
				return nil
			}
			// A checkpoint is only used if its self-describing framing
			// agrees with the record's cycle; anything else cold-starts
			// the run instead — slower, never wrong.
			if cyc, err := sim.SnapshotCycle(rec.Data); err != nil || cyc != rec.Cycle || cyc <= 0 {
				return nil
			}
			st.cks[rec.Run] = ckpt{cycle: rec.Cycle, state: append([]byte(nil), rec.Data...)}
		case durable.KindDone:
			st.done = true
			st.doneErr = string(rec.Data)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// resumeLog finds the log a resume of the job follows: its executing
// campaign's, or — read back from the store, once — its finished
// results, or the log of a background completion started here because
// the job is unfinished and nothing is executing it (the serving
// process restarted, or the original stream was abandoned). A nil log
// means the store has never heard of the job.
//
// A token that claims more lines than the store holds is refused
// before anything starts: by persist-then-write no honest client
// received a line that is not stored, and following such a token to
// the job's end would drop the records an honest resume still needs.
// The store decides: an executing log may trail it (a completion seeds
// its log once it starts, a foreground job appends after the write).
func (s *Server) resumeLog(id string, delivered int) (*LineLog, error) {
	s.runMu.Lock()
	lg := s.running[id]
	s.runMu.Unlock()
	if lg != nil && delivered <= lg.Len() {
		return lg, nil
	}
	st, err := s.loadJobState(id)
	if err != nil || st.admit == nil {
		return nil, err
	}
	if delivered > len(st.lines) {
		return nil, fmt.Errorf("delivered %d exceeds the job's %d stored results", delivered, len(st.lines))
	}
	if lg != nil {
		return lg, nil
	}
	if st.done {
		lg = NewLineLog(0)
		lg.Append(st.lines...)
		lg.Finish(st.doneErr)
		return lg, nil
	}
	lg, _ = s.ensureRunning(id)
	return lg, nil
}

// handleResume streams a job's undelivered remainder to a client
// presenting a resume token: stored result lines past the client's
// delivered count replay byte-identically, further lines stream as
// their runs retire, and a trailer summarizing the job's results ends
// the stream.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request, rr ResumeRequest) {
	if s.store == nil {
		s.fe.Reject(w, http.StatusNotFound, "this server keeps no durable job records")
		return
	}
	lg, err := s.resumeLog(rr.Job, rr.Delivered)
	if err != nil {
		s.fe.Reject(w, http.StatusBadRequest, fmt.Sprintf("resume %q: %v", rr.Job, err))
		return
	}
	if lg == nil {
		s.fe.Reject(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", rr.Job))
		return
	}

	s.fe.JobsResumed.Add(1)
	out := s.fe.stream(w, rr.Job, "", nil)
	out.line(JobHeader{Job: rr.Job, Resumed: true})
	next, ended := lg.follow(r.Context(), rr.Delivered, out)
	trailer := lg.Trailer()
	if ended && trailer.Err == errInterrupted {
		// The run this stream was following stopped under it — the
		// usual case is a resume racing the wind-down of the very
		// stream it replaces. Restart the job once and carry on from
		// where this stream stands.
		if lg, err = s.resumeLog(rr.Job, next); err == nil && lg != nil {
			_, ended = lg.follow(r.Context(), next, out)
			trailer = lg.Trailer()
		}
	}
	if ended && out.finish(trailer) && trailer.Err != errInterrupted {
		// Fully delivered: the job's records can serve no further
		// resume.
		s.dropJob(rr.Job)
	}
}

// completeJob finishes an interrupted job with no client attached:
// the stored request is rebuilt into the same runs (building is
// deterministic), runs with stored results are skipped, checkpointed
// runs warm-start from their latest snapshot, and new results are
// persisted for a later resume to deliver. Takes a job slot like any
// foreground job.
func (s *Server) completeJob(id string, lg *LineLog) {
	defer s.finishRun(id, lg, errInterrupted)
	s.fe.Acquire()
	defer s.fe.Release()

	st, err := s.loadJobState(id)
	if err != nil || st.admit == nil {
		return
	}
	// Seed the log, once: from here on it grows by the results this
	// run persists.
	lg.Append(st.lines...)
	if st.done {
		s.finishRun(id, lg, st.doneErr)
		return
	}
	var req JobRequest
	if err := json.Unmarshal(st.admit, &req); err != nil {
		s.persistDone(id, lg, fmt.Errorf("stored request unreadable: %v", err))
		return
	}
	scr := getScratch()
	defer scr.release()
	job, err := s.newJob(id, req, scr)
	if err != nil {
		s.persistDone(id, lg, err)
		return
	}

	// The unfinished suffix: idx maps the sub-campaign's indices back
	// to the job's global ones (for a chunk job, records are keyed by
	// the full campaign's indices). A retirement checkpoint at the
	// run's full cycle budget still warm-starts (zero cycles left to
	// step) — the crash fell between the checkpoint and its result
	// record.
	var todo []campaign.Run
	var idx []int
	for i, run := range job.runs {
		gi := job.global(i)
		if st.results[int64(gi)] {
			continue
		}
		if ck, ok := st.cks[int64(gi)]; ok && ck.cycle <= run.Cycles {
			run.Warm = campaign.WarmStartFromState(run.Program, ck.cycle, ck.state)
		}
		todo = append(todo, run)
		idx = append(idx, gi)
	}
	if len(todo) == 0 {
		s.persistDone(id, lg, nil)
		return
	}

	s.fe.JobsActive.Add(1)
	defer s.fe.JobsActive.Add(-1)

	ctx, cancel := context.WithTimeout(context.Background(), s.fe.Deadline(req.DeadlineMS))
	defer cancel()
	// A background completion has no client request to carry a trace
	// id; it gets a fresh one so its spans still group in the ring.
	_, _ = s.execute(telemetry.WithTrace(ctx, telemetry.NewTraceID()), id, todo, idx, nil, false, lg, scr)
}

// Recover replays the durable store after a restart: every job with
// records but no completion marker is re-admitted and completed in
// the background, warm-starting its unfinished runs from their latest
// checkpoints. Finished jobs whose streams were never fully delivered
// are left in place for their clients to resume. Call Recover before
// serving traffic — it also advances the job id sequence past every
// stored job so fresh ids cannot collide. Returns how many jobs it
// re-admitted.
func (s *Server) Recover() (int, error) {
	if s.store == nil {
		return 0, nil
	}
	jobs, err := s.store.Jobs()
	if err != nil {
		return 0, err
	}
	for _, id := range jobs {
		var n int64
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil {
			for {
				cur := s.jobSeq.Load()
				if n <= cur || s.jobSeq.CompareAndSwap(cur, n) {
					break
				}
			}
		}
	}
	recovered := 0
	for _, id := range jobs {
		done := false
		if err := s.store.Replay(id, func(rec durable.Record) error {
			if rec.Kind == durable.KindDone {
				done = true
			}
			return nil
		}); err != nil || done {
			continue
		}
		if _, started := s.ensureRunning(id); started {
			recovered++
			s.met.jobsRecovered.Add(1)
		}
	}
	return recovered, nil
}
