// Package campaign is the batch-simulation engine: it shards many
// independent machine runs — fault-injection campaigns, parameter
// sweeps over generated specifications, multi-backend comparison
// fleets — across a worker pool, and rolls the per-run statistics up
// into campaign-level aggregates (total cycles, cycles/s, divergence
// and fault-outcome counts).
//
// The thesis' whole argument (Figure 5.1) is simulator throughput; a
// campaign is how that throughput is spent at scale: not one machine
// at a time but a fleet of them, with results that are deterministic —
// byte-identical regardless of worker count — because every Result is
// stored at its Run's index and all timing lives in the Summary.
//
// The same argument shapes how machines come to exist here: a Run
// references a core.Program — the spec compiled once — and the
// engine's workers pool and Reset-reuse machines between runs, so a
// fleet pays for compilation once and for machine state a handful of
// times, never per run. Fault campaigns additionally warm-start every
// run from a shared golden-prefix snapshot (WarmStart) instead of
// re-simulating the cycles before the first fault can act. Hook-free
// runs sharing one Program go further still: the engine steps them as
// gangs (sim.Gang) — struct-of-arrays lockstep execution that
// amortizes component dispatch across the whole gang — with results
// bit-identical to the scalar path.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/aot"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Run is one unit of campaign work: a compiled program, a cycle
// budget, and how to digest the outcome. Runs reference a shared
// immutable Program instead of building machines themselves — the
// engine's workers own the machines, pooling and Reset-reusing them
// between runs, so a thousand-member fleet compiles its specification
// once and allocates a handful of machines, not a thousand.
type Run struct {
	// Name identifies the run in results and reports.
	Name string

	// Group links runs whose digests are expected to agree (the same
	// spec on several backends, identical fleet members, a fault
	// campaign keyed to its golden run). Summarize counts a divergence
	// for every run whose digest differs from the lowest-indexed run
	// of its group. Empty means ungrouped.
	Group string

	// Program is the compiled specification the run executes. Programs
	// are immutable and share freely across runs and workers; every
	// standard constructor (Fleet, BackendFleet, Sweep, FaultRuns)
	// compiles once per spec×backend and references the result from
	// every run.
	Program *core.Program

	// Opts configures the run's machine. The zero value — no tracing,
	// no I/O — is the poolable case: workers Reset-reuse one machine
	// per program. Any non-zero Options forces a fresh machine for the
	// run, since writers and readers carry cross-run state.
	Opts core.Options

	// Cycles is the run's cycle budget.
	Cycles int64

	// Digest reduces the final machine state to a comparable string.
	// nil uses the allocation-free architectural-state digest, which
	// has the same equal-iff-equal-state property as SnapshotDigest.
	Digest func(*sim.Machine) string

	// Faults are injected before the run starts. The worker detaches
	// the injector's hooks afterwards, so faults never leak into the
	// next run on a pooled machine.
	Faults []fault.Fault

	// Warm, when non-nil, seeds the run from a shared lazily-computed
	// snapshot instead of power-on state: the machine restores the
	// snapshot and only the remaining Cycles execute. The WarmStart
	// must belong to the run's Program, and only applies to runs with
	// zero Opts — a snapshot does not capture an input stream's
	// position, so runs with I/O attached cold-start. FaultRuns uses
	// it to simulate a campaign's shared golden prefix exactly once.
	Warm *WarmStart
}

// Result is the outcome of one Run. Results carry no wall-clock
// timing, so a campaign's []Result is identical for any worker count.
type Result struct {
	Index     int       // position in the campaign's run list
	Name      string    // Run.Name
	Group     string    // Run.Group
	Cycles    int64     // cycles actually executed
	Stats     sim.Stats // the machine's execution statistics
	Digest    string    // outcome digest (also computed after runtime errors)
	Activated []int64   // per-fault activation counts, parallel to Run.Faults
	Err       error     // build error, runtime error, or ctx.Err() if cancelled
}

// Engine executes campaigns across a worker pool. Each worker keeps a
// pool of one machine per program, Reset-reusing it between runs, so
// the steady-state cost of a run is its simulated cycles — no
// compilation and (for hook-free runs) no per-run allocation beyond
// the result's digest string and statistics.
//
// Runs that share a Program and carry no hooks, faults, I/O, warm
// start or custom digest are additionally stepped as gangs: up to
// GangSize runs execute in lockstep over struct-of-arrays state
// (sim.Gang), paying one component dispatch per component per cycle
// for the whole gang instead of per run. Gang results are
// bit-identical to the scalar path's — same digests, statistics and
// runtime errors — so ganging is purely a throughput decision; runs
// left over (ineligible, backend without gang support, or a
// remainder too small to gang) take the pooled scalar path.
type Engine struct {
	// Workers is the number of worker goroutines; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int

	// Chunk is the cycle granularity of cancellation checks inside a
	// single run or gang; <= 0 means 4096. It is the whole cancellation
	// bound — a unit executes at most one more chunk after ctx is
	// cancelled, whatever its width — so smaller chunks cancel long
	// runs sooner at slightly more loop overhead.
	Chunk int64

	// GangSize pins how many runs of one Program are stepped as a
	// single struct-of-arrays gang. 0 picks a constant per program
	// capability: DefaultBitGangSize for programs whose gangs run
	// bit-parallel kernels (64 lanes is exactly one plane word),
	// DefaultGangSize otherwise. Any value below 2 (but not 0) disables
	// gang execution (a one-lane gang has nothing to amortize); 2 or
	// more pins every gang to that width. Either way plan caps the
	// width at ceil(gangable runs / workers) — parallelism is worth
	// more than dispatch amortization.
	GangSize int

	// Checkpoint, when non-nil, receives binary state snapshots of
	// in-flight runs: every CheckpointEvery simulated cycles and once
	// more when the run (or its gang) retires — including retirement by
	// context cancellation, so the last snapshot of an interrupted
	// campaign is at most CheckpointEvery cycles behind where execution
	// stopped. Only checkpointable runs emit (see Checkpointer); calls
	// come concurrently from worker goroutines.
	Checkpoint Checkpointer

	// CheckpointEvery is the cycle interval between periodic
	// checkpoints of one run; <= 0 emits only at retirement.
	CheckpointEvery int64

	// AOT, when non-nil, enables the ahead-of-time native rung of the
	// dispatch ladder: spans whose runs are gangable, whose Program is
	// compiled-aot, and whose program clears the amortization threshold
	// execute in a generated subprocess worker (see internal/aot)
	// instead of in-process. Results are bit-identical either way; any
	// AOT failure — no toolchain, build error, worker crash — degrades
	// to the in-process path and counts on the cache's fallback meter.
	AOT *aot.Cache

	// AOTThreshold gates AOT dispatch: a program is routed to a native
	// worker only when its gangable runs in the campaign total at least
	// this many cycles (cycles×runs — the scale at which the one-time
	// `go build` amortizes). <= 0 dispatches every eligible program;
	// CLI surfaces default to DefaultAOTThreshold.
	AOTThreshold int64

	// Observe, when non-nil, receives one Dispatch record per executed
	// dispatch unit — a gang, a scalar run, or an AOT span — tagged
	// with the rung of the dispatch ladder it resolved to. The serving
	// layer hangs tracing and per-rung metering off this. Calls come
	// concurrently from worker goroutines (implementations synchronize
	// themselves) with the context ExecuteStream was given, so a trace
	// id carried in ctx reaches every record. A nil Observe costs one
	// branch per dispatch unit and nothing per cycle; it never changes
	// results.
	Observe func(ctx context.Context, d Dispatch)
}

// Dispatch ladder rungs, as reported in Dispatch.Rung. An AOT unit
// that degrades in-process mid-dispatch still reports RungAOT — the
// routing decision is what's being observed; fallbacks are counted on
// the AOT cache's own meter.
const (
	RungAOT         = "aot"          // generated native subprocess worker
	RungBitParallel = "bit-parallel" // gang over 64-lane bit planes
	RungLaneLoop    = "lane-loop"    // struct-of-arrays lane-loop gang
	RungScalar      = "scalar"       // pooled scalar machine
)

// Rungs lists every dispatch rung in ladder order, for meters that
// pre-size per-rung series.
var Rungs = []string{RungAOT, RungBitParallel, RungLaneLoop, RungScalar}

// Dispatch describes one executed dispatch unit for Engine.Observe.
type Dispatch struct {
	Rung   string        // resolved rung (RungAOT, RungBitParallel, ...)
	Runs   int           // runs in the unit: gang lanes, or 1 on the scalar rung
	Cycles int64         // simulated cycles the unit actually executed
	Start  time.Time     // when the unit began executing
	Dur    time.Duration // wall time the unit took
}

// DefaultAOTThreshold is the cycles×runs floor CLI surfaces use for
// AOT dispatch: at ~175 ns/cycle in-process and ~1 s of `go build`,
// campaigns this long are where the native worker starts winning.
const DefaultAOTThreshold = 10_000_000

// Checkpointer is the engine's durability hook. Checkpoint is called
// with the run's index in the campaign's run slice, the absolute
// cycle the snapshot was taken at, and the Machine.SaveState-format
// snapshot bytes. The bytes are only valid for the duration of the
// call (the engine reuses the buffer); an implementation that retains
// them must copy. Calls may come concurrently from several worker
// goroutines — implementations synchronize themselves — but calls for
// one run are ordered by cycle.
//
// Only runs whose state a snapshot fully captures are checkpointed:
// zero Options (no I/O or trace position to lose) and no injected
// faults (an injector's activation bookkeeping lives outside the
// machine). Everything else executes exactly as before, it just never
// emits — restarting such a run from cycle zero is always correct.
type Checkpointer interface {
	Checkpoint(run int, cycle int64, state []byte)
}

// runCheckpointable reports whether a run's snapshots are sufficient
// to resume it: machine state must be the whole story.
func runCheckpointable(r Run) bool {
	return r.Program != nil && r.Opts == (core.Options{}) && len(r.Faults) == 0
}

// DefaultGangSize is the gang width of plain lane-loop programs when
// GangSize is 0 — wide enough to amortize component dispatch, narrow
// enough that a gang's working set stays cache-resident on typical
// specs.
const DefaultGangSize = 32

// DefaultBitGangSize is the gang width, when GangSize is 0, of programs
// whose gangs run bit-parallel kernels: 64 lanes fill exactly one plane
// word, so the word-ops run at full occupancy.
const DefaultBitGangSize = 64

// laneWidth maps a program to its gang width, the only place that
// decision is made: GangSize when pinned (1 — no ganging — for pins
// below 2), otherwise a constant per program capability. It reads
// nothing measured, so a program's width is the same on every job.
func (e Engine) laneWidth(p *core.Program) int {
	switch {
	case e.GangSize >= 2:
		return e.GangSize
	case e.GangSize != 0:
		return 1
	case p.BitGangCapable():
		return DefaultBitGangSize
	}
	return DefaultGangSize
}

// chunk resolves the engine's stepping granularity.
func (e Engine) chunk() int64 {
	if e.Chunk <= 0 {
		return 4096
	}
	return e.Chunk
}

// runGangable reports whether a run may join a gang: it must reference
// a gang-capable program and be free of everything a gang lane cannot
// carry — I/O and tracing (non-zero Options), fault-injection hooks, a
// warm-start snapshot, or a custom digest function (which wants a
// *sim.Machine). Everything else takes the pooled scalar path.
func runGangable(r Run) bool {
	return r.Program != nil && r.Opts == (core.Options{}) && len(r.Faults) == 0 &&
		r.Warm == nil && r.Digest == nil && r.Program.GangCapable()
}

// span is one dispatch unit: a half-open range of plan order and the
// rung of the dispatch ladder that executes it.
type span struct {
	lo, hi int
	rung   string
}

// plan is a campaign's whole dispatch shape: order holds run indices
// with each unit's members contiguous, jobs the units in dispatch
// order. It is a pure function of (runs, workers, Engine configuration)
// — nothing measured feeds it — so the same job takes the same shape
// on every repeat.
type plan struct {
	order []int
	jobs  []span
}

func (p *plan) add(rung string, idxs ...int) {
	lo := len(p.order)
	p.order = append(p.order, idxs...)
	p.jobs = append(p.jobs, span{lo, len(p.order), rung})
}

// plan groups a campaign's runs into dispatch units and resolves each
// unit's rung: gangable runs of one Program batch into gangs — on the
// native worker when the program clears the AOT threshold (campaign-
// level, not span-level: the build is paid once per program, so the
// whole campaign's cycles amortize it), else bit-parallel or lane-loop
// by the program's capability — and every other run, a gang remainder
// of one included, dispatches alone after them.
//
// Gang width is the program's laneWidth capped by ceil(gangable runs /
// workers) — parallelism across workers is worth more than dispatch
// amortization within a gang, so gangs narrow before they would leave
// a worker idle. A 16-run fleet on 8 workers dispatches as 8 two-lane
// gangs, not one idle-everything 16-lane gang; on a single worker it
// packs full-width gangs.
func (e Engine) plan(runs []Run, workers int) plan {
	p := plan{order: make([]int, 0, len(runs))}
	aot := e.aotPrograms(runs)
	byProg := make(map[*core.Program][]int)
	var progs []*core.Program
	var scalars []int
	gangable := 0
	for i, r := range runs {
		if !runGangable(r) {
			scalars = append(scalars, i)
			continue
		}
		gangable++
		if _, ok := byProg[r.Program]; !ok {
			progs = append(progs, r.Program)
		}
		byProg[r.Program] = append(byProg[r.Program], i)
	}
	perWorker := (gangable + workers - 1) / workers
	for _, prog := range progs {
		idxs := byProg[prog]
		// Width and rung are only consulted where a span of two lanes can
		// form or the program goes native: probing the bit-plane
		// capability builds the program's gang kernels, which a run that
		// dispatches alone never uses and a cached program would keep.
		if !aot[prog] && (perWorker < 2 || len(idxs) < 2) {
			scalars = append(scalars, idxs...)
			continue
		}
		rung := RungLaneLoop
		if aot[prog] {
			rung = RungAOT
		} else if prog.BitGangCapable() {
			rung = RungBitParallel
		}
		pw := min(e.laneWidth(prog), perWorker)
		for pw >= 2 && len(idxs) >= 2 {
			n := min(pw, len(idxs))
			p.add(rung, idxs[:n]...)
			idxs = idxs[n:]
		}
		if rung == RungAOT {
			for _, i := range idxs {
				p.add(RungAOT, i)
			}
		} else {
			scalars = append(scalars, idxs...)
		}
	}
	for _, i := range scalars {
		p.add(RungScalar, i)
	}
	return p
}

// Execute runs every Run across the worker pool. results[i] always
// corresponds to runs[i], whatever the worker count or completion
// order. When ctx is cancelled, runs not yet finished record ctx's
// error in their Result and Execute returns it; already-finished
// results are kept.
func (e Engine) Execute(ctx context.Context, runs []Run) ([]Result, error) {
	return e.ExecuteStream(ctx, runs, nil)
}

// ExecuteStream is Execute with streaming delivery: every Result is
// additionally passed to onResult exactly once, as soon as its run
// (or its gang) finishes — the serving layer's NDJSON stream rides
// this. Calls to onResult are serialized (never concurrent), so the
// callback may write to a shared sink without locking, but they come
// from worker goroutines in completion order, not index order; a
// consumer that needs index order has Result.Index, or the returned
// slice, which is identical to Execute's — same indexed placement,
// same digests, statistics and errors for any worker count. Runs
// cancelled before dispatch are delivered too (with ctx's error),
// after the workers drain. onResult must not call back into the
// engine for the same campaign. A nil onResult is exactly Execute.
func (e Engine) ExecuteStream(ctx context.Context, runs []Run, onResult func(Result)) ([]Result, error) {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]Result, len(runs))
	if len(runs) == 0 {
		return results, ctx.Err()
	}
	p := e.plan(runs, workers)
	if workers > len(p.jobs) {
		workers = len(p.jobs)
	}

	var emitMu sync.Mutex
	emit := func(idxs []int) {
		if onResult == nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		for _, i := range idxs {
			onResult(results[i])
		}
	}

	jobs := make(chan span)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{
				pool:  make(map[*core.Program]*sim.Machine),
				gangs: make(map[*core.Program]*sim.Gang),
			}
			defer w.closeProcs()
			for s := range jobs {
				idxs := p.order[s.lo:s.hi]
				var start time.Time
				if e.Observe != nil {
					start = time.Now()
				}
				switch s.rung {
				case RungAOT:
					e.execAOT(ctx, w, idxs, runs, results)
				case RungScalar:
					results[idxs[0]] = e.exec(ctx, w, idxs[0], runs[idxs[0]])
				default:
					e.execGang(ctx, w, idxs, runs, results)
				}
				if e.Observe != nil {
					var cycles int64
					for _, i := range idxs {
						cycles += results[i].Cycles
					}
					e.Observe(ctx, Dispatch{
						Rung: s.rung, Runs: len(idxs), Cycles: cycles,
						Start: start, Dur: time.Since(start),
					})
				}
				emit(idxs)
			}
		}()
	}
	// Dispatch until the context is cancelled; the jobs never handed
	// to a worker are marked cancelled directly below instead of being
	// funnelled through the channel one by one.
	next := 0
dispatch:
	for ; next < len(p.jobs); next++ {
		select {
		case jobs <- p.jobs[next]:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	for _, s := range p.jobs[next:] {
		for _, i := range p.order[s.lo:s.hi] {
			results[i] = Result{Index: i, Name: runs[i].Name, Group: runs[i].Group, Err: ctx.Err()}
		}
		emit(p.order[s.lo:s.hi])
	}
	return results, ctx.Err()
}

// worker is one goroutine's execution context: the per-program
// machine and gang pools.
type worker struct {
	pool    map[*core.Program]*sim.Machine
	gangs   map[*core.Program]*sim.Gang
	procs   map[*core.Program]*aot.Proc // persistent native workers
	targets []int64                     // reused per-gang-job cycle budget buffer
	ckbuf   []byte                      // reused checkpoint snapshot buffer
}

// closeProcs shuts down the worker's native subprocesses at the end of
// a campaign (EOF on stdin, then wait).
func (w *worker) closeProcs() {
	for prog, p := range w.procs {
		p.Close()
		delete(w.procs, prog)
	}
}

// gang returns a pooled gang for the program with room for lanes, or
// nil when the program cannot gang. A gang is allocated at the width
// of the span that first needs it; plan emits a program's spans widest
// first, so within a campaign it is never reallocated.
func (w *worker) gang(p *core.Program, lanes int) *sim.Gang {
	if g := w.gangs[p]; g != nil && g.Capacity() >= lanes {
		return g
	}
	g, ok := p.NewGang(lanes)
	if !ok {
		return nil
	}
	w.gangs[p] = g
	return g
}

// execGang performs one gang job — two or more runs of one Program in
// lockstep — writing each lane's Result at its run's index. Results
// are bit-identical to running each lane through exec: same default
// digest, statistics, cycle counts and runtime errors.
func (e Engine) execGang(ctx context.Context, w *worker, idxs []int, runs []Run, results []Result) {
	for _, i := range idxs {
		results[i] = Result{Index: i, Name: runs[i].Name, Group: runs[i].Group}
	}
	if err := ctx.Err(); err != nil {
		for _, i := range idxs {
			results[i].Err = err
		}
		return
	}
	g := w.gang(runs[idxs[0]].Program, len(idxs))
	if g == nil {
		// Unreachable while plan gates on GangCapable, but degrading to
		// the scalar path is always correct.
		for _, i := range idxs {
			results[i] = e.exec(ctx, w, i, runs[i])
		}
		return
	}
	targets := w.targets[:0]
	for _, i := range idxs {
		targets = append(targets, runs[i].Cycles)
	}
	w.targets = targets
	g.Reset(targets)

	chunk := e.chunk()
	// Gang lanes are gangable by construction, and gangable implies
	// checkpointable (zero Options, no faults), so the whole gang
	// checkpoints together: every lane still running snapshots at the
	// same stepping boundary, SaveLaneState bytes being interchangeable
	// with Machine.SaveState by design. A lane that has halted — budget
	// reached or runtime error — has nothing new to save until the
	// retirement pass below.
	var sinceCk int64
	var ctxErr error
	for g.Step(chunk) {
		if e.Checkpoint != nil && e.CheckpointEvery > 0 {
			if sinceCk += chunk; sinceCk >= e.CheckpointEvery {
				sinceCk = 0
				for l, i := range idxs {
					if g.LaneErr(l) != nil || g.LaneCycle(l) >= targets[l] {
						continue
					}
					w.ckbuf = g.AppendLaneState(l, w.ckbuf[:0])
					e.Checkpoint.Checkpoint(i, g.LaneCycle(l), w.ckbuf)
				}
			}
		}
		if err := ctx.Err(); err != nil {
			ctxErr = err
			break
		}
	}
	for l, i := range idxs {
		res := &results[i]
		res.Cycles = g.LaneCycle(l)
		res.Stats = g.LaneStats(l)
		res.Err = g.LaneErr(l)
		if res.Err == nil && ctxErr != nil && res.Cycles < runs[i].Cycles {
			res.Err = ctxErr
		}
		res.Digest = hashHex(g.LaneArchHash(l))
		if e.Checkpoint != nil && g.LaneErr(l) == nil {
			// Retirement (or interruption) checkpoint: emitted for clean
			// and cancelled lanes alike — a cancelled lane's snapshot is
			// the one resume continues from. Lanes that died on a runtime
			// error are terminal — nothing to resume.
			w.ckbuf = g.AppendLaneState(l, w.ckbuf[:0])
			e.Checkpoint.Checkpoint(i, res.Cycles, w.ckbuf)
		}
	}
}

// machine returns a machine for the run: the worker's pooled machine
// for the program (Reset to power-on state) when the run's Options
// are zero, a fresh single-use machine otherwise.
func (w *worker) machine(r Run) *sim.Machine {
	if r.Opts != (core.Options{}) {
		return r.Program.NewMachine(r.Opts)
	}
	if m := w.pool[r.Program]; m != nil {
		m.Reset()
		return m
	}
	m := r.Program.NewMachine(core.Options{})
	w.pool[r.Program] = m
	return m
}

// exec performs one run on the calling goroutine.
func (e Engine) exec(ctx context.Context, w *worker, idx int, r Run) Result {
	res := Result{Index: idx, Name: r.Name, Group: r.Group}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	if r.Program == nil {
		res.Err = errors.New("campaign: run has no program")
		return res
	}
	m := w.machine(r)

	// Warm start: restore the shared snapshot instead of simulating
	// the prefix. Only zero-Options runs are eligible — a snapshot
	// does not capture an input stream's position or the prefix's
	// trace output, so a run with I/O attached must simulate its own
	// prefix. Any other failure — a prefix that itself hits a runtime
	// error, a WarmStart misattached to a different program — likewise
	// degrades to a cold start, which is always correct (the run just
	// re-simulates the prefix, reproducing any error itself).
	var warmed int64
	if r.Warm != nil && r.Warm.program == r.Program && r.Opts == (core.Options{}) {
		if st, cycles, err := r.Warm.snapshot(); err == nil && cycles > 0 && cycles <= r.Cycles {
			if m.RestoreState(st) == nil {
				warmed = cycles
			}
		}
	}

	var inj *fault.Injector
	if len(r.Faults) > 0 {
		var err error
		if inj, err = fault.Inject(m, r.Faults...); err != nil {
			res.Err = err
			return res
		}
		// The injector's after-commit hook must not survive into the
		// next run on this pooled machine.
		defer m.ClearHooks()
	}

	chunk := e.chunk()
	ckpt := e.Checkpoint != nil && runCheckpointable(r)
	var sinceCk int64
	// Each chunk goes through the fused batch fast path when the run's
	// machine supports it (compiled backend, no observers attached);
	// fault runs attach after-commit hooks and fall back automatically.
	for remaining := r.Cycles - warmed; remaining > 0; {
		if err := ctx.Err(); err != nil {
			res.Err = err
			break
		}
		n := min(chunk, remaining)
		if err := m.RunBatch(n); err != nil {
			res.Err = err
			break
		}
		remaining -= n
		// Periodic checkpoints are for runs still executing; one that
		// just finished is snapshotted by the retirement pass below.
		if ckpt && e.CheckpointEvery > 0 && remaining > 0 {
			if sinceCk += n; sinceCk >= e.CheckpointEvery {
				sinceCk = 0
				w.ckbuf = m.AppendState(w.ckbuf[:0])
				e.Checkpoint.Checkpoint(idx, m.Cycle(), w.ckbuf)
			}
		}
	}
	if ckpt && (res.Err == nil || res.Err == ctx.Err()) {
		// Retirement (or interruption) checkpoint; runs that died on a
		// runtime error are terminal and emit nothing.
		w.ckbuf = m.AppendState(w.ckbuf[:0])
		e.Checkpoint.Checkpoint(idx, m.Cycle(), w.ckbuf)
	}

	res.Cycles = m.Cycle()
	res.Stats = m.Stats()
	if inj != nil {
		res.Activated = append([]int64(nil), inj.Applied...)
	}
	// A runtime error is a run *outcome* (fault campaigns count on
	// it), not a campaign failure; the digest of whatever state the
	// machine reached is still comparable.
	if r.Digest != nil {
		res.Digest = r.Digest(m)
	} else {
		res.Digest = archDigest(m)
	}
	return res
}

// archDigest hashes the machine's architectural state (value vector
// and memory arrays) into a short hex string with the same
// equal-iff-equal-state property as SnapshotDigest, but without
// building the name-keyed snapshot: the only allocation is the
// returned string. Gang lanes digest through the same hash
// (Gang.LaneArchHash), so the two execution paths agree by
// construction on identical state.
func archDigest(m *sim.Machine) string {
	return hashHex(m.ArchHash())
}

// hashHex renders a 64-bit state hash as the 16-digit hex digest
// string both execution paths report.
func hashHex(h uint64) string {
	const hexdigits = "0123456789abcdef"
	var out [16]byte
	for i := 15; i >= 0; i-- {
		out[i] = hexdigits[h&0xf]
		h >>= 4
	}
	return string(out[:])
}

// SnapshotDigest hashes the machine's complete architectural state —
// every component output and every memory array — into a short hex
// string: two machines agree iff they reached identical state. Runs
// default to the cheaper archDigest (same property, no snapshot map);
// SnapshotDigest remains the explicit, name-keyed form external
// drivers cross-check with.
func SnapshotDigest(m *sim.Machine) string {
	snap := m.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range keys {
		h.Write([]byte(k))
		for _, v := range snap[k] {
			u := uint64(v)
			for i := 0; i < 8; i++ {
				buf[i] = byte(u >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Summary rolls a campaign's results up to campaign level. All fields
// except Elapsed and CyclesPerSec are deterministic functions of the
// results alone.
type Summary struct {
	Runs            int   `json:"runs"`
	Errors          int   `json:"errors"`           // runs that ended in an error
	Cycles          int64 `json:"cycles"`           // total simulated cycles
	MemReads        int64 `json:"mem_reads"`        // total memory read operations
	MemWrites       int64 `json:"mem_writes"`       // total memory write operations
	Divergences     int   `json:"divergences"`      // completed grouped runs whose digest differs from the group reference
	FaultRuns       int   `json:"fault_runs"`       // runs that had faults injected
	FaultsActivated int64 `json:"faults_activated"` // total cycles on which a fault changed a value

	Elapsed      time.Duration `json:"-"`
	ElapsedSec   float64       `json:"elapsed_s"`
	CyclesPerSec float64       `json:"cycles_per_s"`
}

// Summarize aggregates results; elapsed is the campaign's wall-clock
// time (zero disables the throughput fields).
func Summarize(results []Result, elapsed time.Duration) Summary {
	s := Summary{Runs: len(results), Elapsed: elapsed, ElapsedSec: elapsed.Seconds()}
	ref := make(map[string]string) // group -> reference digest
	for _, r := range results {
		s.Cycles += r.Stats.Cycles
		s.MemReads += r.Stats.MemReads()
		s.MemWrites += r.Stats.MemWrites()
		if r.Err != nil {
			s.Errors++
		}
		if r.Activated != nil {
			s.FaultRuns++
			for _, n := range r.Activated {
				s.FaultsActivated += n
			}
		}
		// Divergences are counted among completed runs only: a run
		// that was cancelled or never built has no meaningful digest
		// (and must not become a group's reference), and a run that
		// died on a runtime error is already counted in Errors.
		if r.Group != "" && r.Err == nil {
			if want, ok := ref[r.Group]; !ok {
				ref[r.Group] = r.Digest
			} else if r.Digest != want {
				s.Divergences++
			}
		}
	}
	if elapsed > 0 {
		s.CyclesPerSec = float64(s.Cycles) / elapsed.Seconds()
	}
	return s
}

// String renders a one-line human-readable summary.
func (s Summary) String() string {
	line := fmt.Sprintf("%d runs, %d cycles (%d reads, %d writes)",
		s.Runs, s.Cycles, s.MemReads, s.MemWrites)
	if s.Elapsed > 0 {
		line += fmt.Sprintf(" in %v (%.0f cycles/s)", s.Elapsed.Round(time.Microsecond), s.CyclesPerSec)
	}
	line += fmt.Sprintf(", %d divergent, %d errors", s.Divergences, s.Errors)
	if s.FaultRuns > 0 {
		line += fmt.Sprintf(", %d fault runs (%d activations)", s.FaultRuns, s.FaultsActivated)
	}
	return line
}
