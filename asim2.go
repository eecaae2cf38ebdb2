// Package asim2 is a Go reproduction of ASIM II, the register transfer
// language architecture simulator from Lester Bartel's "Computer
// Architecture Simulation Using a Register Transfer Language" (Kansas
// State University, 1986 / MICRO 1987).
//
// A hardware design is described with exactly three primitives — ALU,
// Selector and Memory — and simulated cycle by cycle. This package is
// the stable facade; the implementation lives under internal/ (see
// DESIGN.md for the module map):
//
//	spec, err := asim2.ParseString("counter", src)
//	prog, err := asim2.Compile(spec, asim2.Compiled) // compile once
//	m := prog.NewMachine(asim2.Options{Output: os.Stdout})
//	err = m.Run(1000) // traces and observers fire, fault records apply, every cycle
//
// Machines of one Program share its compiled evaluator; build fleets
// with one Compile and many NewMachine calls. asim2.NewMachine(spec,
// backend, opts) remains as a single-machine convenience wrapper.
// Program.NewGang builds a struct-of-arrays Gang that steps many
// machines of one Program without I/O in lockstep, amortizing
// component dispatch across the whole gang (the campaign engine does
// this automatically for every fleet run without I/O, warm-started and
// faulted runs included).
//
// Backends: Interp is the table-walking baseline (the original ASIM),
// Compiled pre-compiles the specification to closures (the ASIM II
// side of the thesis' Figure 5.1), Bytecode sits between them —
// internal/lower's unfolded program run through one generic loop —
// and the codegen packages emit stand-alone Go or Pascal simulators.
// Every backend evaluates a cycle with one StepCycle call, and a
// Machine steps every cycle, hooked or not, through one loop.
package asim2

//go:generate go run ./tools/gentestdata

import (
	"io"

	"repro/internal/core"
)

// Re-exported types; see internal/core and internal/sim.
type (
	Spec         = core.Spec
	Program      = core.Program
	ProgramCache = core.ProgramCache
	Machine      = core.Machine
	Gang         = core.Gang
	Options      = core.Options
	Backend      = core.Backend
	Stats        = core.Stats
	RuntimeError = core.RuntimeError
)

// Available backends.
const (
	Interp           = core.Interp
	InterpNaive      = core.InterpNaive
	Compiled         = core.Compiled
	CompiledNoFold   = core.CompiledNoFold
	CompiledNoBitpar = core.CompiledNoBitpar
	Bytecode         = core.Bytecode
	CompiledAOT      = core.CompiledAOT
)

// Backends lists every available backend. CompiledAOT is an alias of
// Compiled and is not listed.
func Backends() []Backend { return core.Backends() }

// ParseString parses and analyzes specification text.
func ParseString(name, src string) (*Spec, error) { return core.ParseString(name, src) }

// Parse parses and analyzes a specification from r.
func Parse(name string, r io.Reader) (*Spec, error) { return core.Parse(name, r) }

// ParseFile parses and analyzes a specification file.
func ParseFile(path string) (*Spec, error) { return core.ParseFile(path) }

// Compile builds the chosen backend's evaluator for a parsed
// specification once, returning the immutable Program every machine of
// a fleet can share (Program.NewMachine allocates only mutable state).
func Compile(s *Spec, b Backend) (*Program, error) { return core.Compile(s, b) }

// NewProgramCache builds an empty content-addressed program cache:
// Get(spec, backend) compiles each (canonical-spec digest, backend)
// key at most once and shares the Program thereafter. The serving
// layer (cmd/asimd) keeps one for all clients; anything compiling
// repeated or user-supplied specs can do the same.
func NewProgramCache() *ProgramCache { return core.NewProgramCache() }

// NewMachine builds a simulation machine for a parsed specification: a
// convenience wrapper equivalent to Compile followed by
// Program.NewMachine. Construct fleets through Compile instead, so the
// compilation is paid once.
func NewMachine(s *Spec, b Backend, opts Options) (*Machine, error) {
	return core.NewMachine(s, b, opts)
}
