package sim

import (
	"fmt"
	"io"
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

// Fail panics with a RuntimeError; Machine.Run and Machine.Step
// recover it into an ordinary error return. Backends call Fail so
// their per-expression code stays free of error plumbing on the hot
// path.
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
// Machine passes in. That contract is what makes a core.Program cheap
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

// Machine simulates one analyzed specification. It owns all state; the
// Evaluator supplies the per-cycle expression evaluation strategy.
type Machine struct {
	state // one column: per-slot outputs, memory arrays, latched memory inputs
	eval  Evaluator
	opts  Options

	cycle int64
	stats Stats
	inDev *inputDevice
	out   io.Writer

	observers []Observer
	tracer    *tracer
	faults    []Fault // applied after every commit (SetFaults)
	hits      []int64 // per fault record, the cycles it changed a value
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
	m := &Machine{state: newState(layout, 1), eval: eval, opts: opts}
	m.stats.MemOps = m.ops // stride 1: the state's counts are the machine's
	if opts.Input != nil {
		m.inDev = newInputDevice(opts.Input)
	}
	m.out = opts.Output
	if m.out == nil {
		m.out = io.Discard
	}
	if opts.Trace != nil {
		m.tracer = newTracer(opts.Trace, layout)
	}
	m.Reset()
	return m
}

// Layout returns the slot layout of the program the machine runs.
func (m *Machine) Layout() *Layout { return m.layout }

// Backend returns the evaluator's name.
func (m *Machine) Backend() string { return m.eval.BackendName() }

// Cycle returns the number of cycles executed since the last Reset.
func (m *Machine) Cycle() int64 { return m.cycle }

// Stats returns the accumulated execution statistics. The returned
// value owns its MemOps slice, so it stays valid after the machine is
// Reset and reused (pooled campaign workers do exactly that).
func (m *Machine) Stats() Stats {
	s := m.stats
	s.MemOps = append([]MemOpStats(nil), m.stats.MemOps...)
	return s
}

// Observe registers an observer called at each cycle's trace point.
func (m *Machine) Observe(o Observer) { m.observers = append(m.observers, o) }

// SetFaults gives the machine fault records (see Fault), applied after
// every commit until the next SetFaults. hits, as long as recs, is the
// caller's: hits[k] counts the cycles on which record k changed its
// register's value. Like observers, fault records are not machine
// state: Reset and RestoreState keep them.
func (m *Machine) SetFaults(recs []Fault, hits []int64) { m.faults, m.hits = recs, hits }

// Reset restores power-on state: every component output and memory
// latch 0, memory arrays zeroed except declared initial values, cycle
// 0 — a reset machine's snapshot equals a fresh one's. Statistics are
// cleared.
func (m *Machine) Reset() { m.column().reset() }

// column is the machine's state as the one column of a stride-1 state.
func (m *Machine) column() column { return column{&m.state, 0, &m.cycle, &m.stats} }

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
func (m *Machine) Value(name string) int64 {
	slot, ok := m.layout.Slot(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown component %q", name))
	}
	return m.vals[slot]
}

// SetValue overrides a component's current output. Tests use it;
// overriding a combinational output lasts only until the next cycle
// recomputes it.
func (m *Machine) SetValue(name string, v int64) {
	slot, ok := m.layout.Slot(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown component %q", name))
	}
	m.vals[slot] = v
}

// MemCell returns one cell of a memory's backing array.
func (m *Machine) MemCell(name string, index int) int64 {
	return m.memArray(name)[index]
}

// SetMemCell stores into a memory's backing array.
func (m *Machine) SetMemCell(name string, index int, v int64) {
	m.memArray(name)[index] = v
}

// MemLen returns the number of cells in a memory.
func (m *Machine) MemLen(name string) int { return len(m.memArray(name)) }

func (m *Machine) memArray(name string) []int64 {
	i, ok := m.layout.Memory(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown memory %q", name))
	}
	return m.arrays[i]
}

// Snapshot captures every component output and memory array, keyed by
// component name (memory arrays under "name[]"). The cross-backend
// equivalence tests diff snapshots.
func (m *Machine) Snapshot() map[string][]int64 {
	snap := make(map[string][]int64, len(m.vals)+len(m.arrays))
	for slot, name := range m.layout.Names {
		snap[name] = []int64{m.vals[slot]}
	}
	for i, mem := range m.layout.Mems {
		snap[mem.Name+"[]"] = append([]int64(nil), m.arrays[i]...)
	}
	return snap
}

// Run executes n cycles, or stops early with the error that occurred.
func (m *Machine) Run(n int64) (err error) {
	defer recoverRuntime(&err)
	for i := int64(0); i < n; i++ {
		m.step()
	}
	return nil
}

// RunBatch is a synonym for Run, kept for existing callers.
func (m *Machine) RunBatch(n int64) error { return m.Run(n) }

// Step executes exactly one cycle.
func (m *Machine) Step() (err error) {
	defer recoverRuntime(&err)
	m.step()
	return nil
}

// RunUntil steps the machine until pred returns true (checked after
// each cycle) or max cycles elapse. It returns the number of cycles
// executed in this call and whether pred was satisfied.
func (m *Machine) RunUntil(pred func(*Machine) bool, max int64) (n int64, ok bool, err error) {
	defer recoverRuntime(&err)
	for n = 0; n < max; {
		m.step()
		n++
		if pred(m) {
			return n, true, nil
		}
	}
	return n, false, nil
}

func recoverRuntime(err *error) {
	if r := recover(); r != nil {
		if re, ok := r.(*RuntimeError); ok {
			*err = re
			return
		}
		panic(r)
	}
}

// step runs one cycle, the one cycle loop every Run, Step and RunUntil
// goes through:
//  1. StepCycle: evaluate combinational components in dependency order
//     and latch every memory's addr/data/opn from pre-commit state;
//  2. trace point: per-cycle trace line and observers;
//  3. commit memory operations (and their read/write traces);
//  4. advance the cycle counter and apply the fault records.
//
// Unlike the original generated code, which updated memory output
// registers one after another, step latches all inputs before any
// commit, so results never depend on memory declaration order.
func (m *Machine) step() {
	m.eval.StepCycle(m.vals, m.addr, m.data, m.opn, m.cycle)

	if m.tracer != nil {
		m.tracer.cycleLine(m.cycle, m.vals)
	}
	for _, o := range m.observers {
		o(m)
	}

	m.commitMems()

	m.cycle++
	m.stats.Cycles++
	if m.faults != nil {
		m.column().inject(m.faults, m.hits)
	}
}

// commitMems commits every memory's latched operation — the second
// phase of a cycle.
func (m *Machine) commitMems() {
	for i := range m.layout.Mems {
		mem := &m.layout.Mems[i]
		a, d, op := m.addr[i], m.data[i], m.opn[i]
		arr := m.arrays[i]
		var temp int64
		switch op & 3 {
		case OpRead:
			if a < 0 || a >= int64(len(arr)) {
				Fail(mem.Name, m.cycle, "read address %d outside 0..%d", a, len(arr)-1)
			}
			temp = arr[a]
			m.stats.MemOps[i].Reads++
		case OpWrite:
			if a < 0 || a >= int64(len(arr)) {
				Fail(mem.Name, m.cycle, "write address %d outside 0..%d", a, len(arr)-1)
			}
			temp = d
			arr[a] = d
			m.stats.MemOps[i].Writes++
		case OpInput:
			if m.inDev == nil {
				Fail(mem.Name, m.cycle, "input operation with no input attached")
			}
			v, err := m.inDev.read(a)
			if err != nil {
				Fail(mem.Name, m.cycle, "input at address %d: %v", a, err)
			}
			temp = v
			m.stats.MemOps[i].Inputs++
		case OpOutput:
			temp = d
			writeOutput(m.out, a, d)
			m.stats.MemOps[i].Outputs++
		}
		if m.tracer != nil {
			if TraceWrite(op) {
				m.tracer.memTrace("Write to", mem.Name, a, temp)
			}
			if TraceRead(op) {
				m.tracer.memTrace("Read from", mem.Name, a, temp)
			}
		}
		m.vals[mem.Slot] = temp
	}
}
