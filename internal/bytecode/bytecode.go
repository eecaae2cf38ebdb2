// Package bytecode is a third execution backend sitting between the
// AST-walking interpreter and the closure compiler: it runs the
// program internal/lower produces with folding off — flat, slot-
// resolved terms with pre-resolved masks and shifts — through one
// generic loop each cycle. Every operand is a term sum, every ALU a
// dologic dispatch, every selector a dynamic index; none of the §4.4
// decisions (constant function, constant select, dead data latch) is
// taken. It exists as an ablation point for the Figure 5.1
// reproduction — how much of ASIM II's speedup comes from merely
// pre-resolving the tables versus fully specializing the code.
package bytecode

import (
	"repro/internal/lower"
	"repro/internal/rtl/sem"
	"repro/internal/sim"
)

// VM implements sim.Evaluator over an unfolded lowered program. It is
// stateless after construction — the program is an immutable view and
// every intermediate value lives on the stack of StepCycle — so one VM
// may be shared by any number of machines and goroutines (the
// sim.Evaluator contract).
type VM struct {
	prog lower.Program
}

// New lowers an analyzed specification without folding.
func New(info *sem.Info) *VM { return &VM{prog: lower.Lower(info, false)} }

// BackendName implements sim.Evaluator.
func (vm *VM) BackendName() string { return "bytecode" }

// StepCycle implements sim.Evaluator. The two halves stay separate
// functions: inlined into one, their operand loops spill registers and
// the cycle runs about 10 % slower.
func (vm *VM) StepCycle(vals []int64, addr, data, opn []int64, cycle int64) {
	vm.comb(vals, cycle)
	vm.latch(vals, addr, data, opn)
}

// comb evaluates every combinational component in dependency order.
func (vm *VM) comb(vals []int64, cycle int64) {
	for i := range vm.prog.Ops {
		o := &vm.prog.Ops[i]
		if o.Sel {
			idx := o.Ctl.At(vals, 1, 0)
			if idx < 0 || idx >= int64(len(o.Cases)) {
				sim.Fail(o.Name, cycle, "selector index %d outside 0..%d", idx, len(o.Cases)-1)
			}
			vals[o.Out] = o.Cases[idx].At(vals, 1, 0)
			continue
		}
		vals[o.Out] = sim.DoLogic(o.Ctl.At(vals, 1, 0), o.Left.At(vals, 1, 0), o.Right.At(vals, 1, 0))
	}
}

// latch latches every memory's address, data and operation.
func (vm *VM) latch(vals []int64, addr, data, opn []int64) {
	for i := range vm.prog.Latches {
		l := &vm.prog.Latches[i]
		addr[i] = l.Addr.At(vals, 1, 0)
		data[i] = l.Data.At(vals, 1, 0)
		opn[i] = l.Opn.At(vals, 1, 0)
	}
}
