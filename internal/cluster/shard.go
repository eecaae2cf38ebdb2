package cluster

import (
	"net/http"
	"sync"
	"sync/atomic"
)

// shard is the coordinator's view of one asimd -shard worker: its
// base URL, a bounded count of in-flight chunks, a health state fed by
// both the periodic prober and dispatch failures, and its books.
type shard struct {
	url   string
	sem   chan struct{} // in-flight chunk slots
	freed *wake         // the coordinator's: signalled when a slot frees or the shard is readmitted

	mu      sync.Mutex
	healthy bool
	fails   int // consecutive failures (probe or dispatch)
	skip    int // prober ticks left to skip (backoff while unhealthy)
	backoff int // current backoff, in prober ticks

	// Books, surfaced per shard in /metrics.
	jobsRouted         atomic.Int64 // jobs whose home (first-preference) shard this is
	chunksDispatched   atomic.Int64 // chunk streams opened against this shard
	chunksCompleted    atomic.Int64 // chunks fully delivered by this shard
	chunksRedispatched atomic.Int64 // chunks this shard received after another shard failed them
	failures           atomic.Int64 // dispatch attempts that errored (transport or truncated stream)
}

func newShard(url string, inflight int, freed *wake) *shard {
	// Optimistic start: a shard is routable until evidence says
	// otherwise, so jobs posted before the first probe round-trips
	// are not refused.
	return &shard{url: url, sem: make(chan struct{}, inflight), freed: freed, healthy: true}
}

// wake is a broadcast the chunk dispatcher sleeps on: wait returns a
// channel that closes at the next signal. A waiter takes the channel
// before looking for a free slot, so a signal that lands while it looks
// is never lost.
type wake struct {
	mu sync.Mutex
	ch chan struct{}
}

func (w *wake) wait() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ch == nil {
		w.ch = make(chan struct{})
	}
	return w.ch
}

func (w *wake) signal() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ch != nil {
		close(w.ch)
		w.ch = nil
	}
}

// tryAcquire claims an in-flight slot without blocking.
func (sh *shard) tryAcquire() bool {
	select {
	case sh.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (sh *shard) release() {
	<-sh.sem
	sh.freed.signal()
}

func (sh *shard) isHealthy() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.healthy
}

// noteOK records evidence of life — a successful probe or a cleanly
// finished chunk stream — and restores the shard immediately, waking
// the dispatcher if that readmits it.
func (sh *shard) noteOK() {
	sh.mu.Lock()
	readmitted := !sh.healthy
	sh.healthy = true
	sh.fails, sh.skip, sh.backoff = 0, 0, 0
	sh.mu.Unlock()
	if readmitted {
		sh.freed.signal()
	}
}

// noteFailure records a probe or dispatch failure; threshold
// consecutive failures mark the shard unhealthy so the dispatcher
// stops preferring it. Dispatch errors feed this too — a SIGKILLed
// worker is off the routing table after its in-flight chunks reset,
// without waiting out a probe cycle.
func (sh *shard) noteFailure(threshold int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.fails++
	if sh.fails >= threshold {
		sh.healthy = false
	}
}

// maybeProbe is one prober tick: GET /healthz with the health
// client's timeout. Unhealthy shards are re-probed with exponential
// backoff (1, 2, 4, 8 ticks, capped) — a dead worker should not eat a
// probe every tick forever, but a restarted one is readmitted within
// a few.
func (sh *shard) maybeProbe(client *http.Client, threshold int) {
	sh.mu.Lock()
	if !sh.healthy && sh.skip > 0 {
		sh.skip--
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()

	ok := false
	if resp, err := client.Get(sh.url + "/healthz"); err == nil {
		ok = resp.StatusCode == http.StatusOK
		resp.Body.Close()
	}
	if ok {
		sh.noteOK()
		return
	}
	sh.noteFailure(threshold)
	sh.mu.Lock()
	if !sh.healthy {
		if sh.backoff == 0 {
			sh.backoff = 1
		} else if sh.backoff < 8 {
			sh.backoff *= 2
		}
		sh.skip = sh.backoff
	}
	sh.mu.Unlock()
}
