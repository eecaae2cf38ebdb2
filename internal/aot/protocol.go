// Package aot builds and runs ahead-of-time compiled native simulator
// workers: specialized Go programs printed by gogen.Worker from a
// compiled program's layout and lowering, compiled once with the host toolchain, cached on
// disk by source digest, and driven over a framed binary job protocol
// on stdin/stdout that answers each run with its final machine
// snapshot. It is the native rung of the compiled backend;
// internal/campaign decides when dispatching to a worker
// amortizes the one-time build cost.
//
// The package depends only on the standard library so the generator,
// the campaign engine and the tools can all share the one protocol
// definition without import cycles.
package aot

// Wire protocol, version 2. All integers are little-endian. The host
// writes job frames; the worker answers each job with zero or more
// checkpoint frames, exactly one run frame per requested run (in run
// order), and a terminating end frame. EOF on the worker's stdin is
// the clean shutdown signal. A run frame's snapshot is the run's
// result: cycles, statistics and digest are read out of it, and a
// fault's cycle is the snapshot's, since a fault does not advance the
// counter.
//
//	job:        u32 JobMagic, u64 checkpointEvery,
//	            u32 nruns, nruns × u64 cycle targets
//	checkpoint: u32 CheckpointMagic, u32 run, u64 cycle,
//	            u32 len, len bytes (Machine.SaveState-compatible)
//	run:        u32 RunMagic, u32 run, u32 faultFlag;
//	            if 1: u32+bytes component, u32+bytes message;
//	            u32 len, len bytes (the final snapshot, always sent)
//	end:        u32 EndMagic
const (
	JobMagic        uint32 = 0x41534a42 // "ASJB"
	CheckpointMagic uint32 = 0x41434b50 // "ACKP"
	RunMagic        uint32 = 0x4152554e // "ARUN"
	EndMagic        uint32 = 0x41454e44 // "AEND"
)

// Job is one batch of runs for a worker process. Every run executes
// the worker's single specification from reset for Targets[i] cycles
// (or until a runtime fault).
type Job struct {
	// Targets holds the per-run cycle budgets, one run per entry.
	Targets []int64
	// CheckpointEvery, when positive, asks for a state snapshot frame
	// every that many cycles within each run.
	CheckpointEvery int64
}

// RunError is a simulation-time failure reported by a worker: the
// component and message of a sim.RuntimeError, whose cycle is the
// run's snapshot's.
type RunError struct {
	Component string
	Msg       string
}
