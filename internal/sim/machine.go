package sim

import (
	"fmt"
	"io"
	"math"
)

// RuntimeError is a simulation-time failure: a selector index beyond
// its value list, a memory address outside the declared range, or an
// input operation with no input available. These are the conditions
// Appendix A documents as runtime errors.
type RuntimeError struct {
	Component string
	Cycle     int64
	Msg       string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("cycle %d: component <%s>: %s", e.Cycle, e.Component, e.Msg)
}

// Fail panics with a RuntimeError; the gang recovers it into the
// lane's error, which Machine.Run and Machine.Step return. Backends
// call Fail so their per-expression code stays free of error plumbing
// on the hot path.
func Fail(component string, cycle int64, format string, args ...interface{}) {
	panic(&RuntimeError{Component: component, Cycle: cycle, Msg: fmt.Sprintf(format, args...)})
}

// Evaluator is a compiled specification: the product of one of the
// backends (interp, compile, bytecode). Implementations read and write
// the value vector indexed by slot (Layout.Names; sem.Info.Slot) and
// report runtime errors by panicking with *RuntimeError (use Fail).
//
// Evaluators must be stateless: after construction they hold only
// immutable tables and closures, with every piece of mutable
// simulation state living in the vals/addr/data/opn vectors the
// gang passes in. That contract is what makes a core.Program cheap
// to share — one evaluator can serve any number of machines on any
// number of goroutines concurrently (core's TestProgramSharedAcross-
// Goroutines enforces it under the race detector).
type Evaluator interface {
	// BackendName identifies the backend for reports and benchmarks.
	BackendName() string

	// StepCycle evaluates the first half of a cycle in one call:
	// every combinational component in dependency order, each output
	// written into vals at its slot, then every memory's address, data
	// and operation latched into the parallel slices, indexed by memory
	// ordinal (the order of Layout.Mems). Memory slots hold the
	// previous cycle's output registers and must not be written, and
	// the latches read the combinational values this call computed.
	StepCycle(vals []int64, addr, data, opn []int64, cycle int64)
}

// Options configures a Machine.
type Options struct {
	// Trace receives the per-cycle trace lines for '*'-marked signals
	// and the read/write trace messages. nil disables tracing.
	Trace io.Writer

	// Input supplies memory-mapped input operations. nil makes any
	// input operation a runtime error.
	Input io.Reader

	// Output receives memory-mapped output. nil discards it.
	Output io.Writer
}

// Machine simulates one analyzed specification: a one-lane Gang plus
// the devices a gang lane lacks — a tracer, observers, an input device
// and an output writer. The gang's stride-1 loop is the one cycle loop
// of this package; it reaches the devices through the gang's device
// pointer, which only a Machine sets.
type Machine struct {
	g   *Gang // capacity 1: the machine's state is lane 0's
	out io.Writer

	inDev     *inputDevice
	tracer    *tracer
	observers []Observer
}

// Observer is called at the trace point of every cycle (after
// combinational evaluation and input latching, before memory commit):
// traced combinational values are current, memory values are the
// output registers the cycle computed with.
type Observer func(m *Machine)

// New builds a Machine for a program's layout with its compiled
// evaluator. The evaluator and the layout are referenced, never copied:
// machines built from the same layout+eval share them, and only the
// mutable state vectors are allocated per machine.
func New(layout *Layout, eval Evaluator, opts Options) *Machine {
	g, _ := NewGang(layout, eval, 1)
	g.Reset([]int64{0})
	m := &Machine{g: g, out: opts.Output}
	g.dev = m
	if opts.Input != nil {
		m.inDev = newInputDevice(opts.Input)
	}
	if opts.Trace != nil {
		m.tracer = newTracer(opts.Trace, layout)
	}
	return m
}

// Layout returns the slot layout of the program the machine runs.
func (m *Machine) Layout() *Layout { return m.g.layout }

// Backend returns the evaluator's name.
func (m *Machine) Backend() string { return m.g.eval.BackendName() }

// Cycle returns the number of cycles executed since the last Reset.
func (m *Machine) Cycle() int64 { return m.g.cycle[0] }

// Stats returns the accumulated execution statistics. The returned
// value owns its MemOps slice, so it stays valid after the machine is
// Reset and reused. MemOps is never nil, so a program without memories
// reports equal statistics whether it ran on a machine or a gang lane.
func (m *Machine) Stats() Stats {
	return Stats{Cycles: m.g.stats[0].Cycles, MemOps: append([]MemOpStats{}, m.g.ops...)}
}

// Observe registers an observer called at each cycle's trace point.
func (m *Machine) Observe(o Observer) { m.observers = append(m.observers, o) }

// SetFaults gives the machine fault records (see Fault), applied after
// every commit until the next SetFaults. hits, as long as recs, is the
// caller's: hits[k] counts the cycles on which record k changed its
// register's value. Like observers, fault records are not machine
// state: Reset and RestoreState keep them.
func (m *Machine) SetFaults(recs []Fault, hits []int64) { m.g.SetLaneFaults(0, recs, hits) }

// Reset restores power-on state: every component output and memory
// latch 0, memory arrays zeroed except declared initial values, cycle
// 0 — a reset machine's snapshot equals a fresh one's. Statistics are
// cleared.
func (m *Machine) Reset() { m.column().reset() }

// column is the machine's state: lane 0 of its gang.
func (m *Machine) column() column { return m.g.column(0) }

// AppendState appends the machine's state snapshot to buf and returns
// the extended slice. Passing a reused buffer (buf[:0]) makes repeated
// snapshotting allocation-free once the buffer has grown to size.
func (m *Machine) AppendState(buf []byte) []byte { return m.column().appendState(buf) }

// SaveState returns a binary snapshot of the machine's complete
// mutable state (see state.go for what a snapshot does and does not
// capture).
func (m *Machine) SaveState() []byte { return m.AppendState(nil) }

// RestoreState loads a snapshot produced by SaveState, AppendState or
// Gang.SaveLaneState. The snapshot must come from a machine of
// identical shape (same specification); a mismatched or corrupt
// snapshot is rejected with an error before any machine state is
// modified.
func (m *Machine) RestoreState(st []byte) error { return m.column().restoreState(st) }

// ArchHash folds the machine's architectural state — the per-slot
// value vector and every memory array, the same data Snapshot
// captures — into a 64-bit hash. Campaign digests use it instead of
// building the name-keyed snapshot map: equal state hashes equal, and
// a pooled worker's digest allocates nothing beyond the digest string.
// A gang lane in the same state hashes identically (Gang.LaneArchHash).
func (m *Machine) ArchHash() uint64 { return m.column().archHash() }

// Value returns a component's current output (for memories, the output
// register). It panics if the name is unknown; use Layout().Slot to
// check first.
func (m *Machine) Value(name string) int64 { return m.column().Value(name) }

// MemCell returns one cell of a memory's backing array.
func (m *Machine) MemCell(name string, index int) int64 { return m.column().MemCell(name, index) }

// Snapshot captures every component output and memory array, keyed by
// component name (memory arrays under "name[]"). The cross-backend
// equivalence tests diff snapshots.
func (m *Machine) Snapshot() map[string][]int64 {
	g := m.g
	snap := make(map[string][]int64, len(g.vals)+len(g.arrays))
	for slot, name := range g.layout.Names {
		snap[name] = []int64{g.vals[slot]}
	}
	for i, mem := range g.layout.Mems {
		snap[mem.Name+"[]"] = append([]int64(nil), g.arrays[i]...)
	}
	return snap
}

// Run executes n cycles, or stops early with the runtime error that
// occurred. The machine then stays at the failing cycle, so the next
// Run, Step or RunUntil re-executes it.
func (m *Machine) Run(n int64) error {
	g := m.g
	if n <= 0 {
		return nil
	}
	g.target[0], g.n = g.cycle[0]+min(n, math.MaxInt64-g.cycle[0]), 1
	g.Step(n)
	err := g.err[0]
	g.err[0] = nil
	return err
}

// RunBatch is a synonym for Run, kept for existing callers.
func (m *Machine) RunBatch(n int64) error { return m.Run(n) }

// Step executes exactly one cycle.
func (m *Machine) Step() error { return m.Run(1) }

// RunUntil steps the machine until pred returns true (checked after
// each cycle) or max cycles elapse. It returns the number of cycles
// executed in this call and whether pred was satisfied.
func (m *Machine) RunUntil(pred func(*Machine) bool, max int64) (n int64, ok bool, err error) {
	for ; n < max; n++ {
		if err := m.Run(1); err != nil {
			return n, false, err
		}
		if pred(m) {
			return n + 1, true, nil
		}
	}
	return n, false, nil
}

// tracePoint runs the machine's devices at a cycle's trace point: the
// per-cycle trace line, then the observers.
func (m *Machine) tracePoint() {
	if m.tracer != nil {
		m.tracer.cycleLine(m.g.cycle[0], m.g.vals)
	}
	for _, o := range m.observers {
		o(m)
	}
}

// commit commits every memory's latched operation — the second phase
// of a cycle — on a stride-1 state, the one scalar commit: a one-lane
// Gang's, and so a Machine's. in, out and tr are the machine's input
// device, output writer and tracer; an engine lane has none of them, so
// its input operations fail and its output is counted and discarded,
// like a machine built with zero Options.
func (s *state) commit(cycle int64, in *inputDevice, out io.Writer, tr *tracer) {
	for i := range s.layout.Mems {
		mem := &s.layout.Mems[i]
		a, d, op := s.addr[i], s.data[i], s.opn[i]
		arr := s.arrays[i]
		var temp int64
		switch op & 3 {
		case OpRead:
			if a < 0 || a >= int64(len(arr)) {
				Fail(mem.Name, cycle, "read address %d outside 0..%d", a, len(arr)-1)
			}
			temp = arr[a]
			s.ops[i].Reads++
		case OpWrite:
			if a < 0 || a >= int64(len(arr)) {
				Fail(mem.Name, cycle, "write address %d outside 0..%d", a, len(arr)-1)
			}
			temp = d
			arr[a] = d
			s.ops[i].Writes++
		case OpInput:
			if in == nil {
				Fail(mem.Name, cycle, "input operation with no input attached")
			}
			v, err := in.read(a)
			if err != nil {
				Fail(mem.Name, cycle, "input at address %d: %v", a, err)
			}
			temp = v
			s.ops[i].Inputs++
		case OpOutput:
			temp = d
			if out != nil {
				writeOutput(out, a, d)
			}
			s.ops[i].Outputs++
		}
		if tr != nil {
			if TraceWrite(op) {
				tr.memTrace("Write to", mem.Name, a, temp)
			}
			if TraceRead(op) {
				tr.memTrace("Read from", mem.Name, a, temp)
			}
		}
		s.vals[mem.Slot] = temp
	}
}
