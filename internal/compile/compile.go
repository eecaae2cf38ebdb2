// Package compile is the ASIM II backend: it compiles an analyzed
// specification into closures once, so the per-cycle work is a walk
// over pre-specialized code rather than an interpretation of the
// component tables. This is the in-process counterpart of the thesis'
// Pascal code generation (packages codegen/gogen and codegen/pasgen
// produce the actual source-code form, printed from the same lowering).
//
// There is one lowering and three kernel families here. Package lower
// walks the syntax tree once per program and produces a flat,
// slot-resolved list of ops and memory latch triples; it is also the
// only place the optimizations §4.4 describes are decided:
//
//   - an ALU whose function operand is constant is compiled into the
//     specific operation instead of a dologic dispatch;
//   - constant expressions are folded to constants;
//   - a selector whose select expression is constant is compiled into
//     the selected case directly;
//   - a memory whose operation is a constant read or input never
//     consumes its data expression, so the data latch is elided — the
//     in-process form of §5.4's "heuristics to determine which
//     memories do not need temporary variables".
//
// Options.NoFold is an argument of that lowering: it disables all of
// these for the ablation benchmarks. The scalar kernels (fused.go), the
// lane-loop gang kernels (gang.go) and the bit-plane gang kernels
// (bitparallel.go) are consumers of the lowered program and never touch
// the syntax tree; Machine.Run steps every cycle, traced or not,
// through the one scalar StepCycle.
package compile

import (
	"sync"

	"repro/internal/lower"
	"repro/internal/rtl/sem"
)

// Options tunes the compiler.
type Options struct {
	// NoFold disables constant folding and constant-function ALU /
	// constant-select selector specialization (§4.4), forcing the
	// fully generic code paths. Used by ablation benchmarks. NoFold
	// also disables bit-parallel gang kernels, which build on the
	// folded classification.
	NoFold bool

	// NoBitParallel disables the bit-parallel gang kernels
	// (bitparallel.go), forcing gangs onto the plain lane-loop path.
	// Used by the ablation benchmarks and the differential tests that
	// compare the two gang paths.
	NoBitParallel bool
}

// Compiled implements sim.Evaluator with one list of scalar kernels
// (fused.go), sim.GangStepper with lane-loop kernels over
// struct-of-arrays fleet state (gang.go), and sim.BitGangStepper
// with word-ops over bit planes (bitparallel.go) — all three built from
// the one lowered program. It is stateless after construction — the
// kernels capture only immutable compile-time data (slots, masks,
// constants) and operate solely on the vectors passed in — so one
// Compiled may be shared by any number of machines and goroutines (the
// sim.Evaluator contract). The gang kernels are built lazily on first
// use behind a sync.Once and are immutable afterwards, which keeps the
// contract intact.
type Compiled struct {
	opts    Options
	prog    lower.Program
	comb    []combFn
	latches []latchFn

	gangOnce    sync.Once
	gangComb    []gangFn
	gangLatches []gangLatchFn

	bitOnce  sync.Once
	bitComb  []bitFn
	bitSlots []int
}

// New compiles info with all optimizations enabled.
func New(info *sem.Info) *Compiled { return NewWithOptions(info, Options{}) }

// NewWithOptions compiles info with explicit optimization settings: it
// lowers the specification once and builds the scalar kernels.
func NewWithOptions(info *sem.Info, opts Options) *Compiled {
	c := &Compiled{opts: opts, prog: lower.Lower(info, !opts.NoFold)}
	c.comb = make([]combFn, len(c.prog.Ops))
	for i := range c.prog.Ops {
		if o := &c.prog.Ops[i]; o.Sel {
			c.comb[i] = scalarSelector(o)
		} else {
			c.comb[i] = scalarALU(o)
		}
	}
	c.latches = make([]latchFn, len(c.prog.Latches))
	for i := range c.prog.Latches {
		c.latches[i] = scalarLatch(i, &c.prog.Latches[i])
	}
	return c
}

// BackendName implements sim.Evaluator.
func (c *Compiled) BackendName() string {
	if c.opts.NoFold {
		return "compiled-nofold"
	}
	if c.opts.NoBitParallel {
		return "compiled-nobitpar"
	}
	return "compiled"
}

// Lowered returns the program the kernels were built from, which the
// native worker is printed from (gogen.Worker). It is a read-only view.
func (c *Compiled) Lowered() *lower.Program { return &c.prog }
