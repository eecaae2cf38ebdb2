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

	// Comb evaluates every combinational component in dependency
	// order, writing each output into vals at its slot. Memory slots
	// hold the previous cycle's output registers and must not be
	// written.
	Comb(vals []int64, cycle int64)

	// MemInputs latches every memory's address, data and operation
	// expressions into the parallel slices, indexed by memory ordinal
	// (the order of Layout.Mems). It must not modify vals.
	MemInputs(vals []int64, addr, data, opn []int64, cycle int64)
}

// CycleStepper is an optional Evaluator capability: a backend that can
// execute the evaluation half of an entire cycle — combinational
// evaluation in dependency order followed by memory-input latching —
// as one specialized call, with no per-component dispatch. Machine
// memory commit, statistics and hooks stay with the Machine; the
// stepper only replaces the Comb+MemInputs pair.
//
// A CycleStepper must be observationally identical to calling Comb
// then MemInputs: Machine.RunBatch relies on the two paths producing
// bit-identical state, and the equivalence tests enforce it.
type CycleStepper interface {
	Evaluator

	// StepCycle evaluates one full cycle's combinational outputs into
	// vals and latches every memory's addr/data/opn, exactly as
	// Comb(vals, cycle) followed by MemInputs(vals, addr, data, opn,
	// cycle) would.
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
	layout *Layout
	eval   Evaluator
	opts   Options

	vals   []int64   // per-slot outputs: comb current, memory output registers
	arrays [][]int64 // per-memory backing store, by memory ordinal
	addr   []int64   // latched memory addresses
	data   []int64   // latched memory data
	opn    []int64   // latched memory operations

	cycle int64
	stats Stats
	inDev *inputDevice
	out   io.Writer

	observers  []Observer
	committers []Observer
	tracer     *tracer
}

// Observer is called at the trace point of every cycle (after
// combinational evaluation and input latching, before memory commit):
// traced combinational values are current, memory values are the
// output registers the cycle computed with. Observers may modify
// machine state (fault injectors do).
type Observer func(m *Machine)

// New builds a Machine for a program's layout with its compiled
// evaluator. The evaluator and the layout are referenced, never copied:
// machines built from the same layout+eval share them, and only the
// mutable state vectors are allocated per machine.
func New(layout *Layout, eval Evaluator, opts Options) *Machine {
	m := &Machine{layout: layout, eval: eval, opts: opts}
	nm := len(layout.Mems)
	m.vals = make([]int64, layout.Slots())
	m.arrays = make([][]int64, nm)
	m.addr = make([]int64, nm)
	m.data = make([]int64, nm)
	m.opn = make([]int64, nm)
	for i, mem := range layout.Mems {
		m.arrays[i] = make([]int64, mem.Size)
	}
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

// AfterCommit registers an observer called at the end of every cycle,
// after all memory operations have committed and the cycle counter has
// advanced. Overrides applied to memory outputs here are what every
// consumer sees next cycle — the injection point fault campaigns use
// to model stuck-at and transient register faults.
func (m *Machine) AfterCommit(o Observer) { m.committers = append(m.committers, o) }

// Reset restores power-on state: every component output and memory
// latch 0, memory arrays zeroed except declared initial values, cycle
// 0 — a reset machine's snapshot equals a fresh one's. Statistics are
// cleared.
func (m *Machine) Reset() {
	for i := range m.vals {
		m.vals[i] = 0
	}
	for i, mem := range m.layout.Mems {
		arr := m.arrays[i]
		for j := range arr {
			arr[j] = 0
		}
		copy(arr, mem.Init)
	}
	for i := range m.addr {
		m.addr[i], m.data[i], m.opn[i] = 0, 0, 0
	}
	m.cycle = 0
	// Reuse the MemOps backing array: Reset+run cycles on a pooled
	// machine must not allocate.
	if m.stats.MemOps == nil {
		m.stats = Stats{MemOps: make([]MemOpStats, len(m.layout.Mems))}
	} else {
		ops := m.stats.MemOps
		for i := range ops {
			ops[i] = MemOpStats{}
		}
		m.stats = Stats{MemOps: ops}
	}
}

// ClearHooks detaches every observer and after-commit hook, returning
// the machine to the hook-free state in which RunBatch takes the fused
// fast path. Campaign workers call it before returning a machine to
// the pool, so one run's fault injectors never leak into the next.
func (m *Machine) ClearHooks() {
	m.observers = nil
	m.committers = nil
}

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

// SetValue overrides a component's current output. Fault injection and
// tests use it; overriding a combinational output lasts only until the
// next cycle recomputes it.
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

// RunBatch executes n cycles through the fused fast path when it is
// available: the evaluator implements CycleStepper and no trace writer,
// observers or after-commit hooks are attached. The fast loop performs
// one fused StepCycle call plus the memory commit per cycle, with every
// hook check hoisted out of the loop; otherwise it falls back to the
// per-cycle path. Both paths produce bit-identical machine state and
// statistics, so callers may treat RunBatch as Run with the hook
// checks amortized over the batch.
func (m *Machine) RunBatch(n int64) (err error) {
	stepper, ok := m.eval.(CycleStepper)
	if !ok || m.tracer != nil || len(m.observers) > 0 || len(m.committers) > 0 {
		return m.Run(n)
	}
	defer recoverRuntime(&err)
	for i := int64(0); i < n; i++ {
		stepper.StepCycle(m.vals, m.addr, m.data, m.opn, m.cycle)
		m.commitMems()
		m.cycle++
		m.stats.Cycles++
	}
	return nil
}

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

// step runs one cycle:
//  1. evaluate combinational components in dependency order;
//  2. latch every memory's addr/data/opn from pre-commit state;
//  3. trace point: per-cycle trace line and observers;
//  4. commit memory operations (and their read/write traces).
//
// Unlike the original generated code, which updated memory output
// registers one after another, step latches all inputs before any
// commit, so results never depend on memory declaration order.
func (m *Machine) step() {
	m.eval.Comb(m.vals, m.cycle)
	m.eval.MemInputs(m.vals, m.addr, m.data, m.opn, m.cycle)

	if m.tracer != nil {
		m.tracer.cycleLine(m.cycle, m.vals)
	}
	for _, o := range m.observers {
		o(m)
	}

	m.commitMems()

	m.cycle++
	m.stats.Cycles++
	for _, o := range m.committers {
		o(m)
	}
}

// commitMems commits every memory's latched operation — the second
// phase of a cycle, shared by the per-cycle and fused batch paths.
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
