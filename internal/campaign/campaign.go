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
// references a core.Program — the spec compiled once — and every run
// executes as a lane of a gang (sim.Gang) borrowed from the program's
// own pool, so a fleet pays for compilation once and for machine state
// a handful of times, never per run. Fault campaigns additionally
// warm-start every run from a shared golden-prefix snapshot (WarmStart)
// instead of re-simulating the cycles before the first fault can act.
// Runs sharing one Program go further still: the engine steps them
// together — struct-of-arrays lockstep execution that amortizes
// component dispatch across the whole gang — with results bit-identical
// to one machine per run. A run that dispatches alone is a one-lane
// gang, which steps the backend's scalar kernels. A lane restores its
// own warm start, applies its own fault records (faults are data that
// sim applies, not hooks) and digests through a machine when the run
// asks for a custom Digest.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
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
// engine steps them on gangs pooled by the program, so a
// thousand-member fleet compiles its specification once and allocates
// a handful of gangs, not a thousand machines.
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

	// Cycles is the run's cycle budget.
	Cycles int64

	// Digest reduces the final machine state to a comparable string.
	// nil uses the allocation-free architectural-state digest, which
	// has the same equal-iff-equal-state property as SnapshotDigest. A
	// gang lane's state is restored into a pooled machine for it.
	Digest func(*sim.Machine) string

	// Faults are lowered (fault.Lower) to records the run's gang lane
	// applies after every commit. Gang.Reset clears them, so they never
	// leak into the next run.
	Faults []fault.Fault

	// Warm, when non-nil, seeds the run from a shared lazily-computed
	// snapshot instead of power-on state: the run's lane restores the
	// snapshot and only the remaining Cycles execute. The WarmStart
	// must belong to the run's Program. FaultRuns uses it to simulate a
	// campaign's shared golden prefix exactly once.
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
	Err       error     // why the run cannot execute, runtime error, or ctx.Err() if cancelled
}

// Engine executes campaigns across a worker pool. Every run executes as
// a lane of a gang taken from its Program's own pool
// (core.Program.GetGang), so the steady-state cost of a run is its
// simulated cycles — no compilation and no per-run allocation beyond
// the result's digest string and statistics, which a gang's lanes
// share one of each.
//
// Runs that share a gang-capable Program, and whose faults lower onto
// it, are stepped together: up to GangSize runs execute in lockstep
// over struct-of-arrays state (sim.Gang), paying one component
// dispatch per component per cycle for the whole gang instead of per
// run. Results are bit-identical to one machine per run — same
// digests, statistics and runtime errors — so ganging is purely a
// throughput decision. Every other run (a backend without gang
// kernels, faults that do not lower, a remainder of one) dispatches
// alone, as a one-lane gang on the backend's scalar kernels.
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
	// DefaultGangSize otherwise. Any value below 2 (but not 0) makes
	// every run dispatch alone, as a one-lane gang on the backend's
	// scalar kernels; 2 or more pins every gang to that width. Either
	// way plan caps the width at ceil(gangable runs / workers) —
	// parallelism is worth more than dispatch amortization. An AOT span
	// that falls back in-process runs as one gang of its runs whatever
	// the pin.
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
	// compiled, and whose program clears the amortization threshold
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
	// dispatch unit — a gang, a run alone, or an AOT span — tagged
	// with the rung of the dispatch ladder that executed it. The serving
	// layer hangs tracing and per-rung metering off this. Calls come
	// concurrently from worker goroutines (implementations synchronize
	// themselves) with the context ExecuteBursts was given, so a trace
	// id carried in ctx reaches every record. A nil Observe costs one
	// branch per dispatch unit and nothing per cycle; it never changes
	// results.
	Observe func(ctx context.Context, d Dispatch)
}

// Dispatch ladder rungs, as reported in Dispatch.Rung: the rung that
// executed the unit. An AOT unit that fell back in-process reports the
// in-process rung that ran it (the AOT cache's meter counts the
// fallback), and a bit-parallel gang whose fault records turned its
// planes off (sim.Gang.SetLaneFaults) reports RungLaneLoop.
const (
	RungAOT         = "aot"          // generated native subprocess worker
	RungBitParallel = "bit-parallel" // gang over 64-lane bit planes
	RungLaneLoop    = "lane-loop"    // struct-of-arrays lane-loop gang
	RungScalar      = "scalar"       // one-lane gang on the scalar kernels
)

// Rungs lists every dispatch rung in ladder order, for meters that
// pre-size per-rung series.
var Rungs = []string{RungAOT, RungBitParallel, RungLaneLoop, RungScalar}

// Dispatch describes one executed dispatch unit for Engine.Observe.
type Dispatch struct {
	Rung   string        // executed rung (RungAOT, RungBitParallel, ...)
	Runs   int           // runs in the unit: its gang's lanes, or an AOT span's runs
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
// Only runs without faults are checkpointed: fault records and their
// activation counts are not machine state. A faulted run executes
// exactly as before, it just never emits — restarting it from cycle
// zero is always correct.
type Checkpointer interface {
	Checkpoint(run int, cycle int64, state []byte)
}

// runCheckpointable reports whether a run's snapshots are sufficient
// to resume it: machine state must be the whole story.
func runCheckpointable(r Run) bool { return len(r.Faults) == 0 }

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
// decision is made: GangSize when pinned (1 — every run alone — for
// pins below 2), otherwise a constant per program capability. It reads
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

// runErr reports why a run cannot execute — it has no Program, or its
// faults do not lower onto it — or nil. Such a run dispatches alone and
// its result carries the error, with no machine ever built.
func runErr(r *Run) error {
	if r.Program == nil {
		return errors.New("campaign: run has no program")
	}
	return fault.Check(r.Program.Layout(), r.Faults)
}

// runGangable reports whether a run may share a gang: it can execute
// and its program has gang kernels. Every other run dispatches alone.
func runGangable(r Run) bool { return runErr(&r) == nil && r.Program.GangCapable() }

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
//
// A counting pass sizes every list once — the served path plans once
// per job. The counts only size the lists; the appends decide where
// runs go, so a miscount costs an allocation, never a misplaced run.
func (e Engine) plan(runs []Run, workers int) plan {
	aot := e.aotPrograms(runs)
	// group is one program's gangable runs that go to its native worker,
	// or the ones that stay in-process, in run order, and how they
	// dispatch; rung is "" when every one of them dispatches alone.
	type key struct {
		prog   *core.Program
		native bool
	}
	keyOf := func(r *Run) key { return key{r.Program, aot[r.Program] && r.Warm == nil && len(r.Faults) == 0} }
	type group struct {
		key
		n     int
		idxs  []int
		rung  string
		width int
	}
	ord := make(map[key]int)
	var groups []group
	var scalars []int
	for i := range runs {
		if !runGangable(runs[i]) {
			scalars = append(scalars, i)
			continue
		}
		k, ok := ord[keyOf(&runs[i])]
		if !ok {
			k = len(groups)
			ord[keyOf(&runs[i])] = k
			groups = append(groups, group{key: keyOf(&runs[i])})
		}
		groups[k].n++
	}
	gangable := len(runs) - len(scalars)
	perWorker := (gangable + workers - 1) / workers
	backing := make([]int, gangable)
	units := len(scalars)
	for k := range groups {
		g := &groups[k]
		g.idxs, backing = backing[:0:g.n], backing[g.n:]
		units += g.n
		// Width and rung are only consulted where a span of two lanes can
		// form or the program goes native: probing the bit-plane
		// capability builds the program's gang kernels, which a run that
		// dispatches alone never uses and a cached program would keep.
		if !g.native && (perWorker < 2 || g.n < 2) {
			continue
		}
		g.rung = RungLaneLoop
		if g.native {
			g.rung = RungAOT
		} else if g.prog.BitGangCapable() {
			g.rung = RungBitParallel
		}
		if g.width = min(e.laneWidth(g.prog), perWorker); g.width >= 2 {
			units += (g.n+g.width-1)/g.width - g.n // gangs, and a last run alone
		}
	}
	for i := range runs {
		if runGangable(runs[i]) {
			g := &groups[ord[keyOf(&runs[i])]]
			g.idxs = append(g.idxs, i)
		}
	}
	p := plan{order: make([]int, 0, len(runs)), jobs: make([]span, 0, units)}
	for _, g := range groups {
		idxs := g.idxs
		if g.rung == "" {
			scalars = append(scalars, idxs...)
			continue
		}
		for g.width >= 2 && len(idxs) >= 2 {
			n := min(g.width, len(idxs))
			p.add(g.rung, idxs[:n]...)
			idxs = idxs[n:]
		}
		if g.rung == RungAOT {
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
	return e.ExecuteBursts(ctx, runs, nil, nil)
}

// ExecuteStream is ExecuteBursts with one callback per Result: every
// Result is passed to onResult exactly once, a burst's results back to
// back. A nil onResult is exactly Execute.
func (e Engine) ExecuteStream(ctx context.Context, runs []Run, onResult func(Result)) ([]Result, error) {
	if onResult == nil {
		return e.ExecuteBursts(ctx, runs, nil, nil)
	}
	return e.ExecuteBursts(ctx, runs, nil, func(burst []Result) {
		for _, r := range burst {
			onResult(r)
		}
	})
}

// ExecuteBursts is Execute with streaming delivery: every Result is
// additionally passed to onBurst exactly once, together with the rest
// of its dispatch unit, as soon as that unit retires — a gang's or an
// AOT span's lanes in one burst, a scalar run alone — so a consumer
// pays its per-delivery costs (a socket write and flush, say) once per
// unit rather than once per run. The serving layer's NDJSON stream
// rides this. Calls to onBurst are serialized (never concurrent), so
// the callback may write to a shared sink without locking, but they
// come from worker goroutines in completion order, not index order; a
// consumer that needs index order has Result.Index, or the returned
// slice, which is identical to Execute's — same indexed placement,
// same digests, statistics and errors for any worker count. Runs
// cancelled before dispatch are delivered too (with ctx's error), one
// burst per undispatched unit, after the workers drain. The burst
// slice is only valid during the call (the engine reuses it); onBurst
// must not call back into the engine for the same campaign. A nil
// onBurst is exactly Execute.
//
// The returned slice is results, resliced to len(runs), when its
// capacity suffices — a caller executing job after job passes the
// previous job's slice back and the engine allocates no new one —
// else a new slice; every element is overwritten either way. nil
// always allocates.
func (e Engine) ExecuteBursts(ctx context.Context, runs []Run, results []Result, onBurst func([]Result)) ([]Result, error) {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cap(results) >= len(runs) {
		results = results[:len(runs)]
	} else {
		results = make([]Result, len(runs))
	}
	if len(runs) == 0 {
		return results, ctx.Err()
	}
	p := e.plan(runs, workers)
	if workers > len(p.jobs) {
		workers = len(p.jobs)
	}

	// burst is sized once, to the widest unit, on the first delivery.
	var emitMu sync.Mutex
	var burst []Result
	emit := func(idxs []int) {
		if onBurst == nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		if burst == nil {
			widest := 0
			for _, s := range p.jobs {
				widest = max(widest, s.hi-s.lo)
			}
			burst = make([]Result, 0, widest)
		}
		burst = burst[:0]
		for _, i := range idxs {
			burst = append(burst, results[i])
		}
		onBurst(burst)
	}

	jobs := make(chan span)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w worker
			defer w.closeProcs()
			for s := range jobs {
				idxs := p.order[s.lo:s.hi]
				var start time.Time
				if e.Observe != nil {
					start = time.Now()
				}
				var ran string
				if s.rung == RungAOT {
					ran = e.execAOT(ctx, &w, idxs, runs, results)
				} else {
					ran = e.execGang(ctx, &w, idxs, runs, results)
				}
				if e.Observe != nil {
					if ran == "" {
						ran = s.rung // nothing stepped: book the plan
					}
					var cycles int64
					for _, i := range idxs {
						cycles += results[i].Cycles
					}
					e.Observe(ctx, Dispatch{
						Rung: ran, Runs: len(idxs), Cycles: cycles,
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

// worker is one goroutine's execution context for one campaign: its
// pooled machines (for custom digests and AOT snapshots), native
// workers, and reused buffers. Gangs are not kept here; each job takes
// one from its Program's pool and returns it (core.Program.GetGang),
// so they outlive the campaign.
type worker struct {
	pool    map[*core.Program]*sim.Machine
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

// execGang performs one in-process job — runs of one Program in
// lockstep, or one run alone as a one-lane gang — writing each lane's
// Result at its run's index. Results are bit-identical to one machine
// per run: same digests, activation counts, statistics, cycle counts
// and runtime errors. It returns the rung that stepped the job:
// RungScalar for one lane, RungBitParallel while the gang's planes are
// on, RungLaneLoop otherwise, or "" when nothing stepped (cancelled
// before it began, or a run that cannot execute).
func (e Engine) execGang(ctx context.Context, w *worker, idxs []int, runs []Run, results []Result) string {
	for _, i := range idxs {
		results[i] = Result{Index: i, Name: runs[i].Name, Group: runs[i].Group}
	}
	if err := ctx.Err(); err != nil {
		for _, i := range idxs {
			results[i].Err = err
		}
		return ""
	}
	if err := runErr(&runs[idxs[0]]); err != nil { // plan dispatches such a run alone
		results[idxs[0]].Err = err
		return ""
	}
	prog := runs[idxs[0]].Program
	g := prog.GetGang(len(idxs))
	defer prog.PutGang(g)
	if cap(w.targets) < len(idxs) {
		w.targets = make([]int64, 0, g.Capacity())
	}
	targets := w.targets[:0]
	for _, i := range idxs {
		targets = append(targets, runs[i].Cycles)
	}
	w.targets = targets
	g.Reset(targets)
	for l, i := range idxs {
		if st := runs[i].warmState(); st != nil {
			_ = g.RestoreLaneState(l, st) // a snapshot that does not restore leaves the lane cold
		}
		if len(runs[i].Faults) > 0 {
			recs, _ := fault.Lower(prog.Layout(), runs[i].Faults) // runErr checked them
			results[i].Activated = make([]int64, len(recs))
			g.SetLaneFaults(l, recs, results[i].Activated)
		}
	}
	ran := RungLaneLoop
	switch {
	case g.Capacity() == 1:
		ran = RungScalar
	case g.BitParallel():
		ran = RungBitParallel
	}

	chunk := e.chunk()
	// The gang's checkpointable lanes (all but the faulted ones)
	// checkpoint together: every lane still running snapshots at the
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
					if g.LaneErr(l) != nil || g.LaneCycle(l) >= targets[l] || !runCheckpointable(runs[i]) {
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
	// The gang's lanes share one statistics block and one digest
	// string, each lane's a slice of it: two allocations per gang job,
	// none per lane.
	ops := make([]sim.MemOpStats, 0, len(idxs)*g.MemCount())
	var digests strings.Builder
	digests.Grow(len(idxs) * hexDigits)
	for l, i := range idxs {
		res := &results[i]
		res.Cycles = g.LaneCycle(l)
		res.Stats, ops = g.AppendLaneStats(l, ops)
		res.Err = g.LaneErr(l)
		if res.Err == nil && ctxErr != nil && res.Cycles < runs[i].Cycles {
			res.Err = ctxErr
		}
		var hex [hexDigits]byte
		digests.Write(appendHex(hex[:0], g.LaneArchHash(l)))
		if e.Checkpoint != nil && g.LaneErr(l) == nil && runCheckpointable(runs[i]) {
			// Retirement (or interruption) checkpoint: emitted for clean
			// and cancelled lanes alike — a cancelled lane's snapshot is
			// the one resume continues from. Lanes that died on a runtime
			// error are terminal — nothing to resume.
			w.ckbuf = g.AppendLaneState(l, w.ckbuf[:0])
			e.Checkpoint.Checkpoint(i, res.Cycles, w.ckbuf)
		}
	}
	all := digests.String()
	for l, i := range idxs {
		results[i].Digest = all[l*hexDigits : (l+1)*hexDigits]
		if d := runs[i].Digest; d != nil {
			// A custom digest reads a machine: the lane's state restored
			// into the worker's pooled one, as the AOT rung does.
			m := w.machine(prog)
			w.ckbuf = g.AppendLaneState(l, w.ckbuf[:0])
			_ = m.RestoreState(w.ckbuf) // a lane's snapshot always fits its program
			results[i].Digest = d(m)
		}
	}
	return ran
}

// machine returns the worker's pooled machine for the program. It is
// handed out as the last caller left it: every caller restores a whole
// snapshot over it.
func (w *worker) machine(p *core.Program) *sim.Machine {
	m := w.pool[p]
	if m == nil {
		m = p.NewMachine(core.Options{})
		if w.pool == nil {
			w.pool = make(map[*core.Program]*sim.Machine)
		}
		w.pool[p] = m
	}
	return m
}

// retire is the AOT rung's epilogue, whose run ends as a worker's
// snapshot restored into m: the retirement (or interruption)
// checkpoint, then the cycles, statistics and digest of the state the
// machine reached. A run that died on a runtime error is
// terminal and checkpoints nothing, but the error is a run *outcome*
// (fault campaigns count on it), not a campaign failure, so the digest
// of whatever state the machine reached is still comparable.
func (e Engine) retire(ctx context.Context, w *worker, res *Result, r Run, m *sim.Machine) {
	if e.Checkpoint != nil && runCheckpointable(r) && (res.Err == nil || res.Err == ctx.Err()) {
		w.ckbuf = m.AppendState(w.ckbuf[:0])
		e.Checkpoint.Checkpoint(res.Index, m.Cycle(), w.ckbuf)
	}
	res.Cycles = m.Cycle()
	res.Stats = m.Stats()
	if r.Digest != nil {
		res.Digest = r.Digest(m)
	} else {
		res.Digest = archDigest(m)
	}
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

// hexDigits is the length of a digest string: a 64-bit hash in hex.
const hexDigits = 16

// hashHex renders a 64-bit state hash as the 16-digit hex digest
// string every execution path reports.
func hashHex(h uint64) string {
	var out [hexDigits]byte
	return string(appendHex(out[:0], h))
}

// appendHex appends h's 16-digit lower-case hex rendering to dst.
func appendHex(dst []byte, h uint64) []byte {
	const hexdigits = "0123456789abcdef"
	for i := hexDigits - 1; i >= 0; i-- {
		dst = append(dst, hexdigits[h>>(4*i)&0xf])
	}
	return dst
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
