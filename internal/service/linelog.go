package service

import (
	"context"
	"sync"

	"repro/internal/campaign"
)

// LineLog is a job's result lines in delivery order: appended once
// each, never rewritten, with an end (done plus an error text) and
// any number of followers streaming from an offset — a resume token's
// delivered count. It is a coordinator job's merge output (the merge
// releases lines into it in index order) and what a durable asimd
// job's resume streams follow (seeded once from the store, then
// appended a retirement burst at a time as its results are persisted).
// It keeps the trailer's summary as a fold over its lines, each line
// decoded once over the log's life. A nil *LineLog is a job nobody can
// follow: appends to it are dropped.
type LineLog struct {
	mu     sync.Mutex
	lines  [][]byte
	done   bool
	err    string
	notify chan struct{} // closed at the next event; nil while nobody waits

	// lines[:folded] are summarized in sum, with each group's
	// reference digest — its first completed line's — in ref.
	sum    campaign.Summary
	ref    map[string]string
	folded int
}

// NewLineLog returns an empty log with room for capacity lines.
func NewLineLog(capacity int) *LineLog {
	return &LineLog{lines: make([][]byte, 0, capacity)}
}

// Append adds lines, which the log keeps: the caller must not reuse
// their bytes. Lines appended after the end are dropped.
func (l *LineLog) Append(lines ...[]byte) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.done {
		l.lines = append(l.lines, lines...)
		l.wakeLocked()
	}
}

// Len returns how many lines the log holds.
func (l *LineLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// Finish ends the log — errText is empty for success — and wakes
// every follower. The first Finish wins.
func (l *LineLog) Finish(errText string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.done {
		l.done, l.err = true, errText
		l.wakeLocked()
	}
}

func (l *LineLog) wakeLocked() {
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
}

// follow writes the log's lines from index `from` on to out, waiting
// for later lines as they land, until the log ends, ctx is done or out
// fails. Every line ready at a wake-up goes out as one write and one
// flush. It returns the next undelivered index and whether the log
// ended with every line up to it written.
func (l *LineLog) follow(ctx context.Context, from int, out *lineWriter) (next int, ended bool) {
	for {
		l.mu.Lock()
		// Entries are never rewritten, so the batch stays valid
		// outside the lock while appends continue.
		var batch [][]byte
		if from < len(l.lines) {
			batch = l.lines[from:]
		}
		done := l.done
		var wake chan struct{}
		if len(batch) == 0 && !done {
			if l.notify == nil {
				l.notify = make(chan struct{})
			}
			wake = l.notify
		}
		l.mu.Unlock()

		if len(batch) > 0 {
			out.raw(batch...)
		}
		from += len(batch)
		switch {
		case out.failed() != nil:
			return from, false
		case done:
			return from, true
		case wake == nil:
			continue // wrote a batch; look again before sleeping
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return from, false
		}
	}
}

// Trailer summarizes the log as a stream's final line. It folds the
// lines appended since the last call into the kept summary, so each
// line is decoded once however many streams end: totals (runs, cycles,
// memory traffic, divergences) are exact; the per-memory breakdown
// behind them collapsed into one entry when the lines were rendered.
// A line that does not decode as a RunLine is skipped.
func (l *LineLog) Trailer() JobTrailer {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines[l.folded:] {
		if rl, ok := decodeRunLine(line); ok {
			l.fold(rl)
		}
	}
	l.folded = len(l.lines)
	return JobTrailer{Done: true, Summary: l.sum, Err: l.err}
}

// fold adds one run line to the summary: campaign.Summarize's
// arithmetic over the result the line renders, with divergences
// counted among completed lines against each group's first.
func (l *LineLog) fold(r RunLine) {
	s := &l.sum
	s.Runs++
	s.Cycles += r.Cycles
	s.MemReads += r.MemReads
	s.MemWrites += r.MemWrites
	if r.Err != "" {
		s.Errors++
	}
	if r.Activated > 0 {
		s.FaultRuns++
		s.FaultsActivated += r.Activated
	}
	if r.Group == "" || r.Err != "" {
		return
	}
	if want, ok := l.ref[r.Group]; !ok {
		if l.ref == nil {
			l.ref = make(map[string]string)
		}
		l.ref[r.Group] = r.Digest
	} else if r.Digest != want {
		s.Divergences++
	}
}
