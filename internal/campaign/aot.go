package campaign

import (
	"context"

	"repro/internal/aot"
	"repro/internal/core"
	"repro/internal/sim"
)

// The AOT rung of the dispatch ladder. A span is eligible when every
// run is gangable (zero Options, no faults, no warm start, no custom
// digest — the same shape a gang lane requires) and its Program both
// opted into compiled-aot and cleared the campaign-level amortization
// threshold. Eligible spans execute inside a generated native worker
// subprocess; everything the engine reports — cycles, statistics,
// digests, runtime errors, checkpoints — is bit-identical to the
// in-process paths, which is also the escape hatch: any AOT failure
// re-runs the span in-process.

// aotPrograms resolves which programs route to native workers for this
// campaign: compiled-aot programs whose gangable runs total at least
// the threshold (cycles×runs, the scale amortizing one `go build`).
func (e Engine) aotPrograms(runs []Run) map[*core.Program]bool {
	if e.AOT == nil {
		return nil
	}
	totals := make(map[*core.Program]int64)
	for _, r := range runs {
		if runGangable(r) && r.Program.AOTCapable() {
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
// subprocess, falling back to the in-process path on any failure. On
// context cancellation the completed prefix of results is kept and the
// remaining runs record ctx's error, matching the in-process
// cancellation contract.
func (e Engine) execAOT(ctx context.Context, w *worker, idxs []int, runs []Run, results []Result) {
	for _, i := range idxs {
		results[i] = Result{Index: i, Name: runs[i].Name, Group: runs[i].Group}
	}
	if err := ctx.Err(); err != nil {
		for _, i := range idxs {
			results[i].Err = err
		}
		return
	}
	prog := runs[idxs[0]].Program
	res, err := e.runAOT(ctx, w, prog, idxs, runs)
	if err != nil {
		if ctx.Err() != nil {
			for l, i := range idxs {
				if l < len(res) {
					e.fillAOT(&results[i], res[l], i)
				} else {
					results[i].Err = ctx.Err()
				}
			}
			return
		}
		// Graceful degradation: anything the native path cannot do, the
		// in-process path does identically (just slower). Build errors,
		// a missing toolchain and worker crashes all land here.
		e.AOT.NoteFallback(err.Error())
		if len(idxs) == 1 {
			results[idxs[0]] = e.exec(ctx, w, idxs[0], runs[idxs[0]])
		} else {
			e.execGang(ctx, w, idxs, runs, results)
		}
		return
	}
	for l, i := range idxs {
		e.fillAOT(&results[i], res[l], i)
	}
}

// runAOT builds (or fetches) the program's worker binary, ensures this
// engine worker has a live subprocess for it, and executes the span as
// one job. A binary that won't start is invalidated and rebuilt once —
// the poisoned-cache path — before giving up. A Proc that fails
// mid-job is closed and dropped; the next span starts fresh.
func (e Engine) runAOT(ctx context.Context, w *worker, prog *core.Program, idxs []int, runs []Run) ([]aot.RunResult, error) {
	src := prog.AOTWorkerSource()
	bin, err := e.AOT.Binary(src)
	if err != nil {
		return nil, err
	}
	p := w.procs[prog]
	if p == nil {
		p, err = aot.StartProc(bin)
		if err != nil {
			// A cached binary that won't start (truncated, wrong arch)
			// is poison: rebuild once, then retry.
			e.AOT.Invalidate(aot.Key(src))
			if bin, err = e.AOT.Binary(src); err != nil {
				return nil, err
			}
			if p, err = aot.StartProc(bin); err != nil {
				return nil, err
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

	job := aot.Job{Targets: targets, WantState: e.Checkpoint != nil}
	if e.Checkpoint != nil && e.CheckpointEvery > 0 {
		job.CheckpointEvery = e.CheckpointEvery
	}
	var onCk func(run int, cycle int64, state []byte)
	if e.Checkpoint != nil {
		onCk = func(run int, cycle int64, state []byte) {
			if run >= 0 && run < len(idxs) {
				e.Checkpoint.Checkpoint(idxs[run], cycle, state)
			}
		}
	}
	res, err := p.Run(ctx, job, onCk)
	if err != nil {
		p.Close()
		delete(w.procs, prog)
		return res, err
	}
	return res, nil
}

// fillAOT maps one worker-reported run result onto the engine's Result
// shape, reconstructing the exact sim values the in-process path would
// have produced.
func (e Engine) fillAOT(res *Result, rr aot.RunResult, idx int) {
	res.Cycles = rr.Cycles
	res.Stats = sim.Stats{Cycles: rr.StatCycles, MemOps: make([]sim.MemOpStats, len(rr.MemOps))}
	for i, ops := range rr.MemOps {
		res.Stats.MemOps[i] = sim.MemOpStats{Reads: ops[0], Writes: ops[1], Inputs: ops[2], Outputs: ops[3]}
	}
	if rr.Err != nil {
		res.Err = &sim.RuntimeError{Component: rr.Err.Component, Cycle: rr.Err.Cycle, Msg: rr.Err.Msg}
	}
	res.Digest = hashHex(rr.Hash)
	if e.Checkpoint != nil && rr.Err == nil && len(rr.State) > 0 {
		// Retirement checkpoint, mirroring the in-process paths.
		e.Checkpoint.Checkpoint(idx, rr.Cycles, rr.State)
	}
}
