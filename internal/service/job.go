package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/rtl/sem"
)

// JobRequest is the JSON body of POST /v1/jobs. Exactly one of Spec
// and Scenario selects the workload:
//
//   - Spec is specification source text. The job compiles it through
//     the shared program cache — key (canonical digest, backend) — and
//     runs a fleet of Runs identical copies, Cycles cycles each.
//   - Scenario names a registered campaign scenario; Runs, Cycles,
//     Backend, Seed and Size map onto campaign.Params.
type JobRequest struct {
	Spec     string `json:"spec,omitempty"`     // specification source text
	Modules  bool   `json:"modules,omitempty"`  // parse Spec with the module dialect
	Scenario string `json:"scenario,omitempty"` // registered scenario name

	Backend string `json:"backend,omitempty"` // default "compiled"
	Runs    int    `json:"runs,omitempty"`    // fleet size / scenario N (default 1 / scenario default)
	Cycles  int64  `json:"cycles,omitempty"`  // per-run budget (default: spec's "=" count or 10000)
	Seed    int64  `json:"seed,omitempty"`    // scenario seed
	Size    int    `json:"size,omitempty"`    // scenario size parameter

	DeadlineMS int64 `json:"deadline_ms,omitempty"` // per-job deadline (default/cap: server config)

	// Resume, when set, asks for a dropped stream's remainder instead
	// of a new job; Spec and Scenario must be empty. See ResumeRequest.
	Resume *ResumeRequest `json:"resume,omitempty"`

	// The remaining fields are the cluster fabric's shard protocol
	// (asimd -shard; a server without ShardMode rejects them with 400).
	// A coordinator uses them to dispatch one partition of a campaign
	// to this server and to warm-start re-dispatched work:

	// Chunk selects a partition of the job's runs. The server builds
	// the full run list exactly as it would without Chunk — building is
	// deterministic — then executes only the selected runs, streaming
	// and persisting their lines under their *global* indices, so a
	// chunk's run lines are byte-identical to the same lines of an
	// unchunked execution.
	Chunk *ChunkRequest `json:"chunk,omitempty"`

	// StreamCheckpoints interleaves CheckpointLine records into the
	// NDJSON stream — the coordinator's feed for warm-starting a failed
	// shard's chunks elsewhere: a periodic snapshot of each run still
	// executing every CheckpointCycles simulated cycles, and an
	// interruption snapshot of a run cut short by cancellation. A run
	// that finishes streams no snapshot of its retirement: its result
	// line follows and supersedes it. Nor does a snapshot whose line
	// would exceed MaxStreamLine (the run re-simulates if it must be
	// re-dispatched). Checkpoint lines are never persisted and do not
	// count toward a resume token's delivered run lines.
	StreamCheckpoints bool `json:"stream_checkpoints,omitempty"`

	// Warm seeds listed runs from machine-state snapshots (previously
	// streamed checkpoints) instead of power-on state. A snapshot that
	// does not match its run degrades that run to a cold start — never
	// wrong, just slower.
	Warm []WarmEntry `json:"warm,omitempty"`
}

// ChunkRequest selects a partition of a job's runs: Pick lists their
// global indices (a re-dispatched chunk's unfinished remainder is
// rarely contiguous). An empty, out-of-range or duplicated pick is
// rejected (campaign.NewPartition).
type ChunkRequest struct {
	Pick []int `json:"pick,omitempty"`
}

// WarmEntry is one run's warm-start seed: the snapshot bytes a
// checkpoint line previously carried, the absolute cycle it was taken
// at, and the run's global index.
type WarmEntry struct {
	Run   int    `json:"run"`
	Cycle int64  `json:"cycle"`
	State []byte `json:"state"`
}

// CheckpointLine is the NDJSON record interleaved into a chunk job's
// stream when StreamCheckpoints is set: a periodic or interruption
// snapshot of a run that has not reached its budget, fit to hand back
// as a WarmEntry (a finished run's result line supersedes any
// snapshot). The leading Checkpoint field discriminates it from
// RunLines (which never carry it).
type CheckpointLine struct {
	Checkpoint bool   `json:"checkpoint"`
	Index      int    `json:"index"`
	Cycle      int64  `json:"cycle"`
	State      []byte `json:"state"`
}

// ResumeRequest is the resume token a client presents to pick a
// stream back up: the job id from the original stream's header (or
// X-Job-Id response header) and how many complete run lines it
// already received. The response replays every undelivered stored run
// line byte-for-byte, streams runs that are still executing as they
// retire (restarting interrupted runs from their latest durable
// checkpoints if the campaign is no longer running), and ends with the
// job's trailer — each run delivered exactly once across the original
// stream and the resumed one. A partially received line does not
// count as delivered; it is replayed whole.
type ResumeRequest struct {
	Job       string `json:"job"`
	Delivered int    `json:"delivered,omitempty"`
}

// JobHeader is the stream's first NDJSON line: what was admitted,
// and — for spec jobs — the content-addressed identity it compiled
// under and whether the shared program cache already had it.
type JobHeader struct {
	Job        string `json:"job"`
	Runs       int    `json:"runs"`                 // runs this stream carries (the chunk's size for chunk jobs)
	TotalRuns  int    `json:"total_runs,omitempty"` // full campaign size, set only for chunk jobs
	Backend    string `json:"backend,omitempty"`
	Scenario   string `json:"scenario,omitempty"`
	SpecDigest string `json:"spec_digest,omitempty"`
	Cache      string `json:"cache,omitempty"`   // "hit" or "miss"
	Resumed    bool   `json:"resumed,omitempty"` // stream is a resume, not a fresh job
}

// RunLine is one per-run NDJSON line. Lines stream in completion
// order; Index is the run's position in the job, so a consumer that
// wants batch order re-sorts on it. ResultLine is the single encoding
// of a campaign.Result both the stream and any batch rendering use,
// which is what makes streamed and batch output byte-identical; the
// stream renders it with appendJSON, byte for byte json.Marshal's
// rendering.
type RunLine struct {
	Index     int    `json:"index"`
	Name      string `json:"name"`
	Group     string `json:"group,omitempty"`
	Cycles    int64  `json:"cycles"`
	MemReads  int64  `json:"mem_reads"`
	MemWrites int64  `json:"mem_writes"`
	Digest    string `json:"digest"`
	Activated int64  `json:"activated,omitempty"`
	Err       string `json:"error,omitempty"`
}

// ResultLine renders a campaign result as its stream line.
func ResultLine(r campaign.Result) RunLine {
	line := RunLine{
		Index:     r.Index,
		Name:      r.Name,
		Group:     r.Group,
		Cycles:    r.Cycles,
		MemReads:  r.Stats.MemReads(),
		MemWrites: r.Stats.MemWrites(),
		Digest:    r.Digest,
	}
	for _, a := range r.Activated {
		line.Activated += a
	}
	if r.Err != nil {
		line.Err = r.Err.Error()
	}
	return line
}

// appendJSON appends the line's JSON rendering to dst — exactly the
// bytes json.Marshal(l) produces: field order, omitempty, and the
// standard encoder's string escaping (HTML-safe <, > and &, U+2028 and
// U+2029 escaped, invalid UTF-8 as U+FFFD) — without reflection or an
// allocation per line. FuzzRunLineEncoding holds it to json.Marshal.
func (l RunLine) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(l.Index), 10)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, l.Name)
	if l.Group != "" {
		dst = append(dst, `,"group":`...)
		dst = appendJSONString(dst, l.Group)
	}
	dst = append(dst, `,"cycles":`...)
	dst = strconv.AppendInt(dst, l.Cycles, 10)
	dst = append(dst, `,"mem_reads":`...)
	dst = strconv.AppendInt(dst, l.MemReads, 10)
	dst = append(dst, `,"mem_writes":`...)
	dst = strconv.AppendInt(dst, l.MemWrites, 10)
	dst = append(dst, `,"digest":`...)
	dst = appendJSONString(dst, l.Digest)
	if l.Activated != 0 {
		dst = append(dst, `,"activated":`...)
		dst = strconv.AppendInt(dst, l.Activated, 10)
	}
	if l.Err != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, l.Err)
	}
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string the way encoding/json
// renders one with HTML escaping on (its default).
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // other control bytes, and <, > and &
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// MaxStreamLine is the longest line, newline included, a chunk stream
// carries. A coordinator reads shard streams with this cap, and a shard
// drops a checkpoint line that would exceed it rather than break the
// stream: a missing warm-start entry costs re-simulation, never
// correctness.
const MaxStreamLine = 1 << 20

// LineIndex reads a run line's index from the leading {"index":N,
// that RunLine's field order renders, without decoding the rest, and
// reports whether line starts that way. Checkpoint lines, headers and
// trailers — and truncated or malformed prefixes — report false.
func LineIndex(line []byte) (int, bool) {
	const prefix = `{"index":`
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return 0, false
	}
	digits := line[len(prefix):]
	n := 0
	for n < len(digits) && '0' <= digits[n] && digits[n] <= '9' {
		n++
	}
	// JSON numbers carry no leading zeros.
	if n == 0 || n == len(digits) || digits[n] != ',' || (n > 1 && digits[0] == '0') {
		return 0, false
	}
	i := 0
	for _, d := range digits[:n] {
		if i > (math.MaxInt-9)/10 {
			return 0, false
		}
		i = i*10 + int(d-'0')
	}
	return i, true
}

// decodeRunLine reads a run line back into a RunLine: through
// scanRunLine when the line has appendJSON's canonical layout, through
// json.Unmarshal otherwise. It reports false for lines json.Unmarshal
// rejects.
func decodeRunLine(line []byte) (RunLine, bool) {
	if l, ok := scanRunLine(string(line)); ok {
		return l, true
	}
	var l RunLine
	return l, json.Unmarshal(line, &l) == nil
}

// scanRunLine decodes the exact layout appendJSON renders — every key
// in RunLine's field order, the optional ones present or absent, no
// whitespace, canonical integers — when every string is printable
// ASCII without escapes; the strings are substrings of line. Any other
// line reports false, and json.Unmarshal reads it instead.
// FuzzRunLineEncoding holds it to json.Unmarshal.
func scanRunLine(line string) (l RunLine, ok bool) {
	s := lineScanner{rest: line, ok: true}
	s.lit(`{"index":`)
	index := s.int()
	l.Index = int(index)
	s.lit(`,"name":`)
	l.Name = s.str()
	if s.opt(`,"group":`) {
		l.Group = s.str()
	}
	s.lit(`,"cycles":`)
	l.Cycles = s.int()
	s.lit(`,"mem_reads":`)
	l.MemReads = s.int()
	s.lit(`,"mem_writes":`)
	l.MemWrites = s.int()
	s.lit(`,"digest":`)
	l.Digest = s.str()
	if s.opt(`,"activated":`) {
		l.Activated = s.int()
	}
	if s.opt(`,"error":`) {
		l.Err = s.str()
	}
	s.lit(`}`)
	return l, s.ok && s.rest == "" && int64(l.Index) == index
}

// lineScanner is scanRunLine's cursor: each step consumes a token from
// rest, or clears ok and leaves rest as it was.
type lineScanner struct {
	rest string
	ok   bool
}

// opt consumes p if rest starts with it.
func (s *lineScanner) opt(p string) bool {
	if !s.ok || !strings.HasPrefix(s.rest, p) {
		return false
	}
	s.rest = s.rest[len(p):]
	return true
}

// lit consumes p, which must come next.
func (s *lineScanner) lit(p string) {
	if !s.opt(p) {
		s.ok = false
	}
}

// int consumes an integer as strconv.AppendInt renders one: an
// optional minus, no leading zeros, no "-0", within int64.
func (s *lineScanner) int() int64 {
	digits := strings.TrimPrefix(s.rest, "-")
	n := 0
	for n < len(digits) && '0' <= digits[n] && digits[n] <= '9' {
		n++
	}
	n += len(s.rest) - len(digits)
	v, err := strconv.ParseInt(s.rest[:n], 10, 64)
	if !s.ok || err != nil || digits[0] == '0' && n > 1 {
		s.ok = false
		return 0
	}
	s.rest = s.rest[n:]
	return v
}

// str consumes a string of printable ASCII with no escapes.
func (s *lineScanner) str() string {
	if !s.ok || s.rest == "" || s.rest[0] != '"' {
		s.ok = false
		return ""
	}
	for i := 1; i < len(s.rest); i++ {
		switch c := s.rest[i]; {
		case c == '"':
			v := s.rest[1:i]
			s.rest = s.rest[i+1:]
			return v
		case c < ' ' || c > '~' || c == '\\':
			s.ok = false
			return ""
		}
	}
	s.ok = false
	return ""
}

// JobTrailer is the stream's final NDJSON line.
type JobTrailer struct {
	Done    bool             `json:"done"`
	Summary campaign.Summary `json:"summary"`
	Err     string           `json:"error,omitempty"`
}

// job is an admitted unit of work: the built runs plus the header
// line describing them. For chunk-scoped jobs, runs is the selected
// partition and idx maps each engine index to the run's global index
// in the full campaign (nil for ordinary jobs: identity).
type job struct {
	header JobHeader
	runs   []campaign.Run
	idx    []int
}

// global translates an engine run index to the job's stream index —
// the index result lines, stored records and checkpoints all carry.
func (j *job) global(i int) int {
	if j.idx == nil {
		return i
	}
	return j.idx[i]
}

// Plan is a request that passed every check a server makes before it
// spends anything on the job — shape, backend, parse, defaults,
// limits, scenario build — with what was learned on the way. It is the
// one planner: a coordinator routes and chunks from it as is (a bad
// spec answers 400 there without a single dispatch), and Server.newJob
// finishes it into runs.
type Plan struct {
	Req    JobRequest
	Header JobHeader // Job, Runs, and Backend + SpecDigest or Scenario

	// Key is the job's content identity for routing: the spec's
	// canonical digest — what shards compile under, so a spec's chunks
	// land where its program and AOT binary are already cached — or
	// the scenario's name and parameters.
	Key string

	spec    *core.Spec     // spec jobs: the parsed design,
	backend core.Backend   // its backend
	cycles  int64          // and per-run budget
	runs    []campaign.Run // scenario jobs: the built campaign
}

// Plan validates a request under these limits. shard says whether the
// cluster shard protocol (JobRequest.Chunk / StreamCheckpoints / Warm)
// is accepted. Every error is the client's (400): bad source, unknown
// scenario or backend, limits exceeded. Planning is deterministic —
// the same request yields the same plan on every node, which is what
// lets shards rebuild a coordinator's campaign, and recovery a stored
// one, from the request alone.
func (l Limits) Plan(id string, req JobRequest, shard bool) (*Plan, error) {
	l = l.withDefaults()
	switch {
	case req.Spec == "" && req.Scenario == "":
		return nil, errors.New("job needs a spec or a scenario")
	case req.Spec != "" && req.Scenario != "":
		return nil, errors.New("job takes a spec or a scenario, not both")
	}
	// Size and Seed feed scenario Build (spec generation, memory array
	// sizing) and must be validated here — scenarioSizeCap alone would
	// let a negative size flow through to Build.
	if req.Runs < 0 || req.Cycles < 0 || req.DeadlineMS < 0 || req.Size < 0 || req.Seed < 0 {
		return nil, errors.New("runs, cycles, seed, size and deadline_ms must be non-negative")
	}
	// The shard protocol is opt-in: it exposes machine-state bytes and
	// is a coordinator's to send, never an arbitrary client's.
	if !shard && (req.Chunk != nil || req.StreamCheckpoints || len(req.Warm) > 0) {
		return nil, errors.New("chunk, stream_checkpoints and warm are the cluster shard protocol; this server is not a shard (asimd -shard)")
	}
	// Backends are a closed set; validating before any cache sees one
	// keeps the key space client-independent — garbage backend strings
	// must not grow the never-evicted cache one error entry per
	// spelling.
	if req.Backend != "" {
		if err := validBackend(core.Backend(req.Backend)); err != nil {
			return nil, err
		}
	}
	p := &Plan{Req: req, Header: JobHeader{Job: id}}
	build := p.design
	if req.Scenario != "" {
		build = p.scenario
	}
	if err := build(l); err != nil {
		return nil, err
	}
	return p, nil
}

// design plans a spec job: a fleet of Runs identical copies.
func (p *Plan) design(l Limits) error {
	p.backend = core.Backend(p.Req.Backend)
	if p.backend == "" {
		p.backend = core.Compiled
	}
	parse := core.ParseString
	if p.Req.Modules {
		parse = core.ParseExtendedString
	}
	var err error
	if p.spec, err = parse("job", p.Req.Spec); err != nil {
		return fmt.Errorf("spec: %v", err)
	}
	n := p.Req.Runs
	if n == 0 {
		n = 1
	}
	if p.cycles = p.Req.Cycles; p.cycles == 0 {
		p.cycles = p.spec.DefaultCycles(10000)
	}
	if err := l.checkLimits(n, p.cycles); err != nil {
		return err
	}
	if b := stateBytes(p.spec.Info, n); b > maxStateBytes {
		return fmt.Errorf("job asks for %d bytes of machine state; this server caps machine state at %d", b, maxStateBytes)
	}
	// The digest is rendered once and reused for the header, the
	// route key and the content-addressed compile.
	p.Key = p.spec.CanonicalDigest()
	p.Header.Runs, p.Header.Backend, p.Header.SpecDigest = n, string(p.backend), p.Key
	return nil
}

// maxStateBytes caps the machine state a spec job's widest gang holds
// (stateBytes). The designs in testdata/ need at most 35 KB per lane.
const maxStateBytes = 1 << 30

// stateBytes returns the machine state a spec job asks for: one state
// snapshot's words per lane — the value slots, five framing and cycle
// words, and per memory its cells, count word, three latches and four
// operation counts (sim.WordMap.Len) — × 8 bytes × the lanes of the
// widest gang the engine steps it in, at most DefaultBitGangSize. It
// reads the declared counts, not the cells, and saturates at
// math.MaxInt64, so a declared size of any magnitude costs O(memories).
func stateBytes(info *sem.Info, runs int) int64 {
	lanes := int64(min(runs, campaign.DefaultBitGangSize))
	limit := math.MaxInt64 / 8 / lanes // words per lane before the product overflows
	words := int64(len(info.Order)) + 5
	for _, m := range info.Mems {
		if int64(m.Size) > limit-words-8 {
			return math.MaxInt64
		}
		words += int64(m.Size) + 8
	}
	return words * 8 * lanes
}

// scenarioSizeCap bounds a scenario's Size parameter: Size feeds spec
// generation (memory array lengths), which Build materializes before
// any post-Build check could see it.
const scenarioSizeCap = 1 << 20

// scenario plans a named scenario by building it: scenarios apply
// their own defaults and multipliers, so the campaign's true size —
// which chunk boundaries need — is only known afterwards.
func (p *Plan) scenario(l Limits) error {
	req := p.Req
	sc, ok := campaign.Lookup(req.Scenario)
	if !ok {
		return fmt.Errorf("unknown scenario %q (have %v)", req.Scenario, campaign.Names())
	}
	// The requested parameters are capped before Build runs: Build
	// materializes the run slice (and, for sweeps, generates and
	// compiles specs), so a post-Build check could not prevent the
	// allocation the caps exist to bound.
	if err := l.checkLimits(req.Runs, req.Cycles); err != nil {
		return err
	}
	if req.Size > scenarioSizeCap {
		return fmt.Errorf("job asks for size %d; this server caps scenario size at %d", req.Size, scenarioSizeCap)
	}
	var err error
	p.runs, err = sc.Build(campaign.Params{
		N:       req.Runs,
		Cycles:  req.Cycles,
		Backend: core.Backend(req.Backend),
		Seed:    req.Seed,
		Size:    req.Size,
	})
	if err != nil {
		return fmt.Errorf("scenario %s: %v", req.Scenario, err)
	}
	// Post-Build check: what the scenario produced from its own
	// defaults and multipliers must respect the caps too.
	maxCycles := int64(0)
	for _, r := range p.runs {
		maxCycles = max(maxCycles, r.Cycles)
	}
	if err := l.checkLimits(len(p.runs), maxCycles); err != nil {
		return err
	}
	p.Key = fmt.Sprintf("scenario/%s/%d/%d/%s/%d/%d", req.Scenario, req.Runs, req.Cycles, req.Backend, req.Seed, req.Size)
	p.Header.Runs, p.Header.Scenario = len(p.runs), req.Scenario
	return nil
}

func validBackend(b core.Backend) error {
	for _, k := range core.Backends() {
		if core.Canonical(b) == k {
			return nil
		}
	}
	return fmt.Errorf("unknown backend %q (have %v)", b, core.Backends())
}

func (l Limits) checkLimits(runs int, cycles int64) error {
	if runs > l.MaxRuns {
		return fmt.Errorf("job asks for %d runs; this server caps jobs at %d", runs, l.MaxRuns)
	}
	if cycles > l.MaxCycles {
		return fmt.Errorf("job asks for %d cycles per run; this server caps runs at %d", cycles, l.MaxCycles)
	}
	return nil
}

// jobScratch is the working memory one job borrows from scratchPool
// and gives back when it ends: its fleet's runs, the engine's results,
// and the burst line buffer and line list. Lifetime rule: from
// release on, nothing may hold any of it — not a run, a result, a
// digest or a line's bytes — because the next job overwrites it. A
// job with a LineLog therefore never renders into buf (the log keeps
// its lines' bytes); every other consumer of a burst copies what it
// keeps before the burst callback returns.
type jobScratch struct {
	runs    []campaign.Run
	results []campaign.Result
	buf     []byte
	lines   [][]byte
}

var scratchPool = sync.Pool{New: func() any { return new(jobScratch) }}

func getScratch() *jobScratch { return scratchPool.Get().(*jobScratch) }

// release clears what the scratch references — runs pin their
// Program, results their digests and names — and returns it to the
// pool.
func (sc *jobScratch) release() {
	clear(sc.runs)
	clear(sc.results)
	clear(sc.lines)
	sc.runs, sc.results, sc.lines = sc.runs[:0], sc.results[:0], sc.lines[:0]
	scratchPool.Put(sc)
}

// newJob plans a request and finishes the plan into runs under the id
// the caller assigned (ids are allocated before admission so a queued
// job can be spilled to the durable store): the content-addressed
// compile — one compilation per (digest, backend) across every client
// the server will ever see — then the fleet, built into the scratch's
// run slice, then the request's chunk selection. Errors are client
// errors (400), like the planner's.
func (s *Server) newJob(id string, req JobRequest, scr *jobScratch) (*job, error) {
	p, err := s.fe.Plan(id, req, s.cfg.ShardMode)
	if err != nil {
		return nil, err
	}
	j := &job{header: p.Header, runs: p.runs}
	if p.spec != nil {
		prog, hit, err := s.cache.GetDigest(p.Key, p.spec, p.backend)
		if err != nil {
			return nil, fmt.Errorf("compile: %v", err)
		}
		j.header.Cache = "miss"
		if hit {
			j.header.Cache = "hit"
		}
		// The fleet is named "job", not by the job id, so two identical
		// jobs stream byte-identical run lines — only the header
		// differs (job id, cache hit vs miss).
		j.runs = campaign.AppendFleet(scr.runs[:0], "job", prog, p.Header.Runs, p.cycles)
		scr.runs = j.runs
	}
	if err := j.partition(req); err != nil {
		return nil, err
	}
	return j, nil
}

// partition applies the request's chunk selection and warm-start
// entries to a freshly built job. The full run list was built first —
// deterministically, exactly as an unchunked job would — so the
// partition's names, groups and cycle budgets are the global ones and
// its results are byte-identical to the same slice of an unchunked
// execution (campaign.Partition's contract).
func (j *job) partition(req JobRequest) error {
	if req.Chunk != nil {
		p, err := campaign.NewPartition(j.runs, req.Chunk.Pick)
		if err != nil {
			return fmt.Errorf("chunk: %v", err)
		}
		j.header.TotalRuns = len(j.runs)
		j.header.Runs = len(p.Runs)
		j.runs, j.idx = p.Runs, p.Index
	}
	if len(req.Warm) == 0 {
		return nil
	}
	// Warm entries address runs by global index; entries outside the
	// partition are a coordinator bug and rejected loudly. Snapshot
	// validity, by contrast, degrades to a cold start at execution
	// time (WarmStartFromState) — stale state must never 400 a
	// re-dispatched chunk.
	at := make(map[int]int, len(j.runs))
	for i := range j.runs {
		at[j.global(i)] = i
	}
	for _, w := range req.Warm {
		i, ok := at[w.Run]
		if !ok {
			return fmt.Errorf("warm entry for run %d, which is not in this job's partition", w.Run)
		}
		if w.Cycle > 0 && w.Cycle <= j.runs[i].Cycles {
			j.runs[i].Warm = campaign.WarmStartFromState(j.runs[i].Program, w.Cycle, w.State)
		}
	}
	return nil
}
