// Package core is the facade over the ASIM II reproduction: one-call
// parsing + semantic analysis, backend selection, and machine
// construction. The root asim2 package re-exports this API for
// downstream use; cmd/ tools and examples/ build on it directly.
package core

import (
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/codegen/gogen"
	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/rtl/ast"
	"repro/internal/rtl/modules"
	"repro/internal/rtl/parser"
	"repro/internal/rtl/sem"
	"repro/internal/sim"
)

// Re-exported types, so most users need only this package.
type (
	// Machine is the simulation engine (see internal/sim).
	Machine = sim.Machine
	// RuntimeError is a simulation-time failure.
	RuntimeError = sim.RuntimeError
	// Stats holds execution statistics.
	Stats = sim.Stats
	// Options configures I/O and tracing for a machine.
	Options = sim.Options
	// Gang steps many machines of one Program in lockstep over
	// struct-of-arrays state (see internal/sim).
	Gang = sim.Gang
)

// Backend selects an execution strategy.
type Backend string

const (
	// Interp walks the specification tables each cycle (the ASIM
	// baseline of Figure 5.1).
	Interp Backend = "interp"
	// InterpNaive additionally re-resolves every component reference
	// by linear search, as the original ASIM's findname did.
	InterpNaive Backend = "interp-naive"
	// Compiled pre-compiles components to specialized closures (the
	// ASIM II side of Figure 5.1, in-process form).
	Compiled Backend = "compiled"
	// CompiledNoFold is Compiled with §4.4's constant-folding
	// optimizations disabled (ablation).
	CompiledNoFold Backend = "compiled-nofold"
	// CompiledNoBitpar is Compiled with the bit-parallel gang kernels
	// disabled, pinning gangs to the plain lane-loop path (ablation,
	// and the reference side of the bit-parallel differential tests).
	CompiledNoBitpar Backend = "compiled-nobitpar"
	// Bytecode runs the unfolded lowering through one generic loop:
	// pre-resolved tables, no specialization (ablation midpoint).
	Bytecode Backend = "bytecode"
	// CompiledAOT is an alias of Compiled, accepted wherever a backend
	// is named. Ahead-of-time native execution is not a backend but a
	// rung of Compiled's dispatch: a campaign engine with an AOT cache
	// routes long enough runs of a Compiled program to a generated
	// subprocess worker (see internal/aot and AOTCapable).
	CompiledAOT Backend = "compiled-aot"
)

// Backends lists every available backend. Aliases are not listed.
func Backends() []Backend {
	return []Backend{Interp, InterpNaive, Compiled, CompiledNoFold, CompiledNoBitpar, Bytecode}
}

// Canonical returns the backend a name selects: the alias CompiledAOT
// selects Compiled, and every other name selects itself. Compile, the
// ProgramCache key and request validation all go through it, so an
// alias shares its backend's programs.
func Canonical(b Backend) Backend {
	if b == CompiledAOT {
		return Compiled
	}
	return b
}

// Spec is a parsed and semantically analyzed specification.
type Spec struct {
	AST  *ast.Spec
	Info *sem.Info
}

// ParseExtendedString parses the module dialect (the §5.4 "future
// work" modularity construct implemented in internal/rtl/modules):
// module definitions are expanded at compile time, then the result is
// parsed and analyzed like any base specification. Plain
// specifications pass through unchanged.
func ParseExtendedString(name, src string) (*Spec, error) {
	expanded, err := modules.Expand(name, src)
	if err != nil {
		return nil, err
	}
	return ParseString(name, expanded)
}

// ParseString parses and analyzes specification text.
func ParseString(name, src string) (*Spec, error) {
	a, err := parser.ParseString(name, src)
	if err != nil {
		return nil, err
	}
	info, err := sem.Analyze(a)
	if err != nil {
		return nil, err
	}
	return &Spec{AST: a, Info: info}, nil
}

// Parse parses and analyzes a specification from r.
func Parse(name string, r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(name, string(data))
}

// ParseFile parses and analyzes a specification file.
func ParseFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseString(path, string(data))
}

// Warnings returns the semantic warnings for the spec.
func (s *Spec) Warnings() []string { return s.Info.Warnings }

// DefaultCycles returns the "=" cycle count, or def when absent.
func (s *Spec) DefaultCycles(def int64) int64 {
	if s.AST.HasCycles {
		return s.AST.Cycles
	}
	return def
}

// Program is a compiled specification bound to one backend: the
// immutable product of semantic analysis plus evaluator construction.
// Compiling is the expensive half of bringing a machine up (Figure
// 5.1's whole argument is amortizing it over simulated cycles);
// Program makes the split explicit so a fleet of machines pays it
// once.
//
// A Program keeps what runs, not what it was compiled from: the
// evaluator and the slot layout (sim.Layout) that machines, gangs,
// tracing, VCD dumps and fault injection read. It never holds the
// Spec, so a cached program does not keep its syntax tree alive — only
// the interp evaluators walk the tree, and they keep their own
// reference to it. A compiled program's native worker is printed from
// the layout and the lowered program its evaluator keeps anyway.
//
// A Program is safe for concurrent use. Backend evaluators are
// stateless by contract (see sim.Evaluator): after construction they
// hold only immutable tables and closures, so any number of machines
// on any number of goroutines can share one Program. All mutable
// simulation state lives in the Machines it builds.
type Program struct {
	backend Backend
	eval    sim.Evaluator
	layout  *sim.Layout

	// gangs holds gangs released by finished campaigns (GetGang /
	// PutGang): one-lane gangs in gangs[0], wider ones in gangs[1], so
	// a lone run never borrows a wide gang's lane-loop kernels. It
	// lives in the program, not in a map keyed by it, so the pooled
	// gangs are freed with the program when it leaves the cache.
	gangs [2]sync.Pool

	aotOnce sync.Once
	aotSrc  string
}

// Compile builds the chosen backend's evaluator and the slot layout for
// an analyzed spec once, returning the shareable Program. An alias
// compiles its backend's program (see Canonical).
func Compile(s *Spec, b Backend) (*Program, error) {
	b = Canonical(b)
	ev, err := NewEvaluator(s.Info, b)
	if err != nil {
		return nil, err
	}
	return &Program{backend: b, eval: ev, layout: sim.NewLayout(s.Info)}, nil
}

// Backend returns the backend the program was compiled for.
func (p *Program) Backend() Backend { return p.backend }

// NewMachine builds a machine running this program. Only the machine's
// mutable state is allocated; the compiled evaluator and the layout are
// shared with every other machine of the program.
func (p *Program) NewMachine(opts Options) *Machine {
	return sim.New(p.layout, p.eval, opts)
}

// Layout returns the program's slot layout, which fault records are
// lowered against.
func (p *Program) Layout() *sim.Layout { return p.layout }

// GangCapable reports whether the program's backend can step gangs of
// two or more lanes (implements sim.GangStepper). The campaign engine
// uses it to decide whether the program's runs may share a gang; every
// program runs one-lane gangs.
func (p *Program) GangCapable() bool { return sim.CanGang(p.eval) }

// BitGangCapable reports whether the program's gangs run bit-parallel
// kernels (implements sim.BitGangStepper with a non-empty plane set).
// The campaign planner uses it to widen the default gang size: word-op
// lanes are nearly free, so bit-capable programs want 64-lane gangs.
func (p *Program) BitGangCapable() bool { return sim.CanBitGang(p.eval) }

// NewGang builds a struct-of-arrays gang of up to capacity lanes
// running this program, or reports ok=false when capacity is above 1
// and the backend does not implement sim.GangStepper. Like machines,
// gangs hold only mutable state; the evaluator is shared.
func (p *Program) NewGang(capacity int) (*sim.Gang, bool) {
	return sim.NewGang(p.layout, p.eval, capacity)
}

// GetGang returns a gang of this program with room for at least lanes
// lanes: one a finished campaign released (PutGang) when it is wide
// enough, else a new one at exactly that width. One lane gets a
// one-lane gang, which any program runs; more lanes need a GangCapable
// program. A pooled gang is handed out as it was left; the caller
// Resets it before stepping.
func (p *Program) GetGang(lanes int) *sim.Gang {
	if g, _ := p.gangs[min(lanes, 2)-1].Get().(*sim.Gang); g != nil && g.Capacity() >= lanes {
		return g
	}
	g, _ := p.NewGang(lanes)
	return g
}

// PutGang releases a gang of this program for reuse by a later
// GetGang. The caller must not touch the gang afterwards.
func (p *Program) PutGang(g *sim.Gang) { p.gangs[min(g.Capacity(), 2)-1].Put(g) }

// AOTCapable reports whether the program can run in a native worker:
// whether it is a Compiled program, whose worker prints the same
// lowering its in-process kernels run. The ablations stay in-process,
// since running them is what they measure. The campaign engine uses
// it together with its amortization threshold to decide dispatch.
func (p *Program) AOTCapable() bool { return p.backend == Compiled }

// AOTWorkerSource returns the generated Go source of this program's
// native protocol worker (gogen.Worker), printed once from the layout
// and the evaluator's lowered program and cached. The source text is
// also the binary cache's identity: its digest covers the spec, the
// generator version and the generation options, so any change misses
// cleanly. A program that is not AOTCapable has none and returns "".
func (p *Program) AOTWorkerSource() string {
	p.aotOnce.Do(func() {
		if p.AOTCapable() {
			p.aotSrc = gogen.Worker(p.layout, p.eval.(*compile.Compiled).Lowered())
		}
	})
	return p.aotSrc
}

// NewEvaluator builds the chosen backend for an analyzed spec.
func NewEvaluator(info *sem.Info, b Backend) (sim.Evaluator, error) {
	switch Canonical(b) {
	case Interp, "":
		return interp.New(info), nil
	case InterpNaive:
		return interp.NewNaive(info), nil
	case Compiled:
		return compile.New(info), nil
	case CompiledNoFold:
		return compile.NewWithOptions(info, compile.Options{NoFold: true}), nil
	case CompiledNoBitpar:
		return compile.NewWithOptions(info, compile.Options{NoBitParallel: true}), nil
	case Bytecode:
		return bytecode.New(info), nil
	default:
		return nil, fmt.Errorf("unknown backend %q (have %v)", b, Backends())
	}
}

// NewMachine builds a simulation machine for the spec: a convenience
// wrapper that compiles a single-use Program and builds one machine
// from it. Anything constructing more than one machine per spec —
// fleets, sweeps, fault campaigns — should Compile once and call
// Program.NewMachine per machine instead.
func NewMachine(s *Spec, b Backend, opts Options) (*Machine, error) {
	p, err := Compile(s, b)
	if err != nil {
		return nil, err
	}
	return p.NewMachine(opts), nil
}
