package service

import (
	"context"
	"encoding/json"
	"sync"

	"repro/internal/campaign"
)

// LineLog is a job's result lines in delivery order: appended once
// each, never rewritten, with an end (done plus an error text) and
// any number of followers streaming from an offset — a resume token's
// delivered count. It is a coordinator job's merge output (the merge
// releases lines into it in index order) and what a durable asimd
// job's resume streams follow (seeded once from the store, then
// appended a retirement burst at a time as its results are persisted). A nil *LineLog is a job
// nobody can follow: appends to it are dropped.
type LineLog struct {
	mu     sync.Mutex
	lines  [][]byte
	done   bool
	err    string
	notify chan struct{} // closed at the next event; nil while nobody waits
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

// Trailer summarizes the log as a stream's final line. The summary is
// reconstructed from the lines themselves: totals (runs, cycles,
// memory traffic, divergences) are exact; the per-memory breakdown
// behind them collapsed into one entry when the lines were rendered.
func (l *LineLog) Trailer() JobTrailer {
	l.mu.Lock()
	lines, errText := l.lines, l.err
	l.mu.Unlock()
	results := make([]campaign.Result, 0, len(lines))
	for _, line := range lines {
		var rl RunLine
		if json.Unmarshal(line, &rl) == nil {
			results = append(results, LineResult(rl))
		}
	}
	return JobTrailer{Done: true, Summary: campaign.Summarize(results, 0), Err: errText}
}
