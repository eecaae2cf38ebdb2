package core

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
)

// CanonicalDigest returns the specification's content-addressed
// identity: the SHA-256, in hex, of its canonical formatting — the
// exact text asimfmt prints. Whitespace, macro spelling and the
// source file name all normalize away, so two specifications that
// format identically share a digest. The digest plus a Backend is
// the ProgramCache key; `asimfmt -digest` prints it so clients can
// pre-compute the cache key a serving job will hit. The text is
// rendered into a buffer and hashed, never built as a string.
func (s *Spec) CanonicalDigest() string {
	var buf [4096]byte
	sum := sha256.Sum256(s.AST.AppendTo(buf[:0]))
	return hex.EncodeToString(sum[:])
}

// ProgramCache compiles each specification at most once per backend,
// keyed by content: (CanonicalDigest, Canonical(Backend)), so an alias
// hits its backend's entry. Programs are immutable
// and shareable, so a cache of them is the natural serving-layer
// amortization of Figure 5.1's compile cost — every client posting the
// same design pays for one compilation, total, not one per job.
//
// A ProgramCache is safe for concurrent use. Concurrent Gets of one
// key coalesce: the first caller compiles, the rest block on the same
// entry and share the result (a hit, even while compilation is still
// in flight). Compile errors are cached too — the key is the content,
// so recompiling identical text cannot succeed.
//
// The cache is bounded: inserting past DefaultCacheEntries keys
// flushes the whole generation and starts over. Distinct content is
// attacker-controllable in a serving deployment (any textual change
// is a new digest), so an unbounded content-addressed map would be an
// OOM waiting for a diverse-enough workload; a generation flush keeps
// the structure trivial, keeps steady workloads (far fewer live
// designs than the cap) at a 100% hit rate, and costs a burst of
// recompiles only when the key space actually churns past the cap.
// Callers holding a *Program across a flush are unaffected — Programs
// are immutable; the cache only drops its references.
type ProgramCache struct {
	mu      sync.Mutex
	entries map[programKey]*cacheEntry
	limit   int
	hits    atomic.Int64
	misses  atomic.Int64
	flushes atomic.Int64
}

// DefaultCacheEntries is how many (digest, backend) keys a
// ProgramCache holds before flushing: generous against any plausible
// live set of designs. It bounds the entry count, not the bytes. A
// compiled program of the served benchmark's unique_specs design shape
// keeps ≈ 23 KiB of heap once cached (campaign's
// TestCachedProgramRetainedBytes holds it to at most 32 KiB), so a full
// generation is ≈ 100 MiB live, and unique_specs, which cycles
// generated designs through a full cache, peaks near 330 MiB resident.
const DefaultCacheEntries = 4096

type programKey struct {
	digest  string
	backend Backend
}

type cacheEntry struct {
	once sync.Once
	prog *Program
	err  error
}

// NewProgramCache returns an empty cache holding up to
// DefaultCacheEntries keys.
func NewProgramCache() *ProgramCache {
	return &ProgramCache{entries: make(map[programKey]*cacheEntry), limit: DefaultCacheEntries}
}

// Get returns the compiled program for (spec, backend), compiling on
// first use of the key and returning the shared Program thereafter.
// hit reports whether the key was already present — the counter the
// serving layer's metrics expose.
func (c *ProgramCache) Get(spec *Spec, b Backend) (prog *Program, hit bool, err error) {
	return c.GetDigest(spec.CanonicalDigest(), spec, b)
}

// GetDigest is Get for a caller that already computed the spec's
// CanonicalDigest — the serving layer does, to echo it in job
// headers — so the canonical text is rendered and hashed once, not
// twice. digest must be spec's CanonicalDigest.
func (c *ProgramCache) GetDigest(digest string, spec *Spec, b Backend) (prog *Program, hit bool, err error) {
	key := programKey{digest, Canonical(b)}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		if len(c.entries) >= c.limit {
			c.entries = make(map[programKey]*cacheEntry, c.limit)
			c.flushes.Add(1)
		}
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.prog, e.err = Compile(spec, b) })
	return e.prog, ok, e.err
}

// Hits returns how many Gets found their key already present.
func (c *ProgramCache) Hits() int64 { return c.hits.Load() }

// Misses returns how many Gets entered a new key (and compiled).
func (c *ProgramCache) Misses() int64 { return c.misses.Load() }

// Flushes returns how many times the cache hit its size bound and
// dropped a whole generation of entries.
func (c *ProgramCache) Flushes() int64 { return c.flushes.Load() }

// Len returns the number of cached keys (including error entries).
func (c *ProgramCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
