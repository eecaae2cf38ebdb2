package campaign

import (
	"context"
	"fmt"

	"repro/internal/aot"
	"repro/internal/core"
	"repro/internal/sim"
)

// The AOT rung of the dispatch ladder. A span is eligible when every
// run is gangable and native — it starts at power-on and carries no
// faults, which the worker protocol cannot carry yet, so those runs of
// the program take in-process gangs — and its Program is a compiled
// one (AOTCapable) that cleared the campaign-level amortization
// threshold. Eligible spans execute inside a generated native worker
// subprocess, which answers each run with its final snapshot. Restored
// into a machine, the snapshot goes through the rung's epilogue
// (Engine.retire), so everything the engine reports — cycles,
// statistics, digests (a custom Digest included), runtime errors,
// checkpoints — is bit-identical to the in-process paths, which are
// also the escape hatch: any AOT failure re-runs the span in-process.

// aotPrograms resolves which programs route to native workers for this
// campaign: compiled programs whose native runs total at least the
// threshold (cycles×runs, the scale amortizing one `go build`).
func (e Engine) aotPrograms(runs []Run) map[*core.Program]bool {
	if e.AOT == nil {
		return nil
	}
	totals := make(map[*core.Program]int64)
	for _, r := range runs {
		if runGangable(r) && r.Warm == nil && len(r.Faults) == 0 && r.Program.AOTCapable() {
			totals[r.Program] += r.Cycles
		}
	}
	if len(totals) == 0 {
		return nil
	}
	eligible := make(map[*core.Program]bool, len(totals))
	for prog, total := range totals {
		if e.AOTThreshold <= 0 || total >= e.AOTThreshold {
			eligible[prog] = true
		}
	}
	return eligible
}

// execAOT performs one span of runs inside the program's native worker
// subprocess, falling back to the in-process path on any failure, and
// returns the rung that executed it: RungAOT, or execGang's on a
// fallback. On context cancellation the runs the worker finished keep
// their results and the rest record ctx's error, matching the
// in-process cancellation contract.
func (e Engine) execAOT(ctx context.Context, w *worker, idxs []int, runs []Run, results []Result) string {
	done, err := 0, ctx.Err()
	if err == nil {
		done, err = e.runAOT(ctx, w, idxs, runs, results)
	}
	if err != nil && ctx.Err() == nil {
		// Graceful degradation: anything the native path cannot do, the
		// in-process path does identically (just slower), on a gang even
		// for a span of one. Build errors, a missing toolchain, worker
		// crashes and snapshots that do not restore all land here.
		e.AOT.NoteFallback(err.Error())
		return e.execGang(ctx, w, idxs, runs, results)
	}
	for _, i := range idxs[done:] {
		results[i] = Result{Index: i, Name: runs[i].Name, Group: runs[i].Group, Err: ctx.Err()}
	}
	return RungAOT
}

// runAOT builds (or fetches) the program's worker binary, ensures this
// engine worker has a live subprocess for it, and executes the span as
// one job, filling each run's result as its frame arrives. It returns
// how many runs it filled. A binary that won't start is invalidated and
// rebuilt once — the poisoned-cache path — before giving up. A Proc
// that fails mid-job is closed and dropped; the next span starts fresh.
func (e Engine) runAOT(ctx context.Context, w *worker, idxs []int, runs []Run, results []Result) (int, error) {
	prog := runs[idxs[0]].Program
	src := prog.AOTWorkerSource()
	bin, err := e.AOT.Binary(src)
	if err != nil {
		return 0, err
	}
	p := w.procs[prog]
	if p == nil {
		p, err = aot.StartProc(bin)
		if err != nil {
			// A cached binary that won't start (truncated, wrong arch)
			// is poison: rebuild once, then retry.
			e.AOT.Invalidate(aot.Key(src))
			if bin, err = e.AOT.Binary(src); err != nil {
				return 0, err
			}
			if p, err = aot.StartProc(bin); err != nil {
				return 0, err
			}
		}
		if w.procs == nil {
			w.procs = make(map[*core.Program]*aot.Proc)
		}
		w.procs[prog] = p
	}

	targets := w.targets[:0]
	for _, i := range idxs {
		targets = append(targets, runs[i].Cycles)
	}
	w.targets = targets

	job := aot.Job{Targets: targets}
	var onCk func(run int, cycle int64, state []byte)
	if e.Checkpoint != nil {
		job.CheckpointEvery = e.CheckpointEvery
		onCk = func(run int, cycle int64, state []byte) {
			e.Checkpoint.Checkpoint(idxs[run], cycle, state)
		}
	}
	done, err := p.Run(ctx, job, onCk, func(run int, fault *aot.RunError, state []byte) error {
		return e.fillAOT(ctx, w, idxs[run], runs, results, fault, state)
	})
	if err != nil {
		p.Close()
		delete(w.procs, prog)
	}
	return done, err
}

// fillAOT turns one worker run frame into the run's Result: the
// snapshot is restored into this engine worker's pooled machine for the
// program, and the epilogue (Engine.retire) reads the cycles,
// statistics, digest and retirement checkpoint out of it. A fault's cycle is the
// snapshot's, since a fault does not advance the counter. A snapshot
// that does not restore onto the program fails the job.
func (e Engine) fillAOT(ctx context.Context, w *worker, i int, runs []Run, results []Result, fault *aot.RunError, state []byte) error {
	r := runs[i]
	m := w.machine(r.Program)
	if err := m.RestoreState(state); err != nil {
		return fmt.Errorf("aot: run %d snapshot: %w", i, err)
	}
	res := Result{Index: i, Name: r.Name, Group: r.Group}
	if fault != nil {
		res.Err = &sim.RuntimeError{Component: fault.Component, Cycle: m.Cycle(), Msg: fault.Msg}
	}
	e.retire(ctx, w, &res, r, m)
	results[i] = res
	return nil
}
