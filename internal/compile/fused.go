package compile

// The scalar kernels (sim.Evaluator and sim.CycleStepper): one
// specialized closure per component and one per memory latch, built
// from the lowered program.
//
// Profiling a closure-per-operand design shows the cycle cost is
// dominated not by the arithmetic but by indirect calls for trivial
// operands — a whole-component reference is a one-line load whose call
// overhead exceeds the load itself. Each kernel therefore copies its
// simple operands (a constant, a whole slot load or a masked field
// extract) into its closure, where they are branches of the inlinable
// operand.load instead of indirect calls, and a constant function
// selects the specific operation. A component with a compound operand
// (a multi-part concatenation — rare in hand-written machines) runs one
// closure over the lowering's term loop instead.
//
// Comb, MemInputs and StepCycle iterate the same two kernel lists, so a
// hook-bearing cycle (tracing, VCD, fault injection) and the batch fast
// path execute the same code.

import "repro/internal/sim"

// combFn computes one combinational component's output into vals.
type combFn func(vals []int64, cycle int64)

// latchFn latches one memory's inputs into its ordinal position.
type latchFn func(vals []int64, addr, data, opn []int64)

// Comb implements sim.Evaluator.
func (c *Compiled) Comb(vals []int64, cycle int64) {
	for _, fn := range c.comb {
		fn(vals, cycle)
	}
}

// MemInputs implements sim.Evaluator.
func (c *Compiled) MemInputs(vals []int64, addr, data, opn []int64, cycle int64) {
	for _, fn := range c.latches {
		fn(vals, addr, data, opn)
	}
}

// StepCycle implements sim.CycleStepper: Comb followed by MemInputs in
// one call.
func (c *Compiled) StepCycle(vals []int64, addr, data, opn []int64, cycle int64) {
	c.Comb(vals, cycle)
	c.MemInputs(vals, addr, data, opn, cycle)
}

// load evaluates a simple operand against the value vector. It must
// stay small enough to inline into the kernel closures, which is why
// compound expressions are kept out of it.
func (o *operand) load(vals []int64) int64 {
	if o.cnst {
		return o.val
	}
	v := vals[o.slot]
	if o.field {
		v = int64((uint32(v) & o.mask) >> o.from)
	}
	return v
}

// scalarLatch builds one memory's latch kernel with the memory's
// ordinal burned in.
func scalarLatch(i int, m *latch) latchFn {
	if !m.simple() {
		a, d, o := m.addr, m.data, m.opn
		return func(vals []int64, addr, data, opn []int64) {
			addr[i] = a.at(vals, 1, 0)
			data[i] = d.at(vals, 1, 0)
			opn[i] = o.at(vals, 1, 0)
		}
	}
	ao, do, oo := m.addr[0], m.data[0], m.opn[0]
	return func(vals []int64, addr, data, opn []int64) {
		addr[i] = ao.load(vals)
		data[i] = do.load(vals)
		opn[i] = oo.load(vals)
	}
}

// scalarALU mirrors Figure 4.1's "add := left + 3048" against the
// generic "alu := dologic(compute, left, 3048)": a folded function is
// the specific operation over operand-direct loads.
func scalarALU(o *op) combFn {
	slot := o.out
	if !o.simple() {
		// sim.DoLogic reproduces every specialization below exactly, and
		// the (constant) ctl term evaluates to the folded function.
		f, l, r := o.ctl, o.left, o.right
		return func(vals []int64, _ int64) {
			vals[slot] = sim.DoLogic(f.at(vals, 1, 0), l.at(vals, 1, 0), r.at(vals, 1, 0))
		}
	}
	fo, lo, ro := o.ctl[0], o.left[0], o.right[0]
	if !o.folded {
		return func(vals []int64, _ int64) {
			vals[slot] = sim.DoLogic(fo.load(vals), lo.load(vals), ro.load(vals))
		}
	}
	switch o.fn {
	case sim.FnRight:
		return func(vals []int64, _ int64) { vals[slot] = ro.load(vals) }
	case sim.FnLeft:
		return func(vals []int64, _ int64) { vals[slot] = lo.load(vals) }
	case sim.FnNot:
		return func(vals []int64, _ int64) { vals[slot] = sim.Mask - lo.load(vals) }
	case sim.FnAdd:
		return func(vals []int64, _ int64) { vals[slot] = lo.load(vals) + ro.load(vals) }
	case sim.FnSub:
		return func(vals []int64, _ int64) { vals[slot] = lo.load(vals) - ro.load(vals) }
	case sim.FnMul:
		return func(vals []int64, _ int64) { vals[slot] = lo.load(vals) * ro.load(vals) }
	case sim.FnAnd:
		return func(vals []int64, _ int64) { vals[slot] = sim.Land(lo.load(vals), ro.load(vals)) }
	case sim.FnOr:
		return func(vals []int64, _ int64) {
			l, r := lo.load(vals), ro.load(vals)
			vals[slot] = l + r - sim.Land(l, r)
		}
	case sim.FnXor:
		return func(vals []int64, _ int64) {
			l, r := lo.load(vals), ro.load(vals)
			vals[slot] = l + r - sim.Land(l, r)*2
		}
	case sim.FnEq:
		return func(vals []int64, _ int64) {
			if lo.load(vals) == ro.load(vals) {
				vals[slot] = 1
			} else {
				vals[slot] = 0
			}
		}
	case sim.FnLt:
		return func(vals []int64, _ int64) {
			if lo.load(vals) < ro.load(vals) {
				vals[slot] = 1
			} else {
				vals[slot] = 0
			}
		}
	case sim.FnShl:
		// Shift keeps dologic's loop semantics.
		return func(vals []int64, _ int64) {
			vals[slot] = sim.DoLogic(sim.FnShl, lo.load(vals), ro.load(vals))
		}
	default:
		// Zero, unused and out-of-range constants all yield 0.
		return func(vals []int64, _ int64) { vals[slot] = 0 }
	}
}

// scalarSelector routes cases[ctl]. An out-of-range index — dynamic or
// constant — faults at run time (the original generated a Pascal case
// statement that faulted at run time too).
func scalarSelector(o *op) combFn {
	slot, name, n := o.out, o.name, int64(len(o.cases))
	if !o.simple() {
		sel, cases := o.ctl, o.cases
		return func(vals []int64, cycle int64) {
			idx := sel.at(vals, 1, 0)
			if idx < 0 || idx >= n {
				sim.Fail(name, cycle, "selector index %d outside 0..%d", idx, n-1)
			}
			vals[slot] = cases[idx].at(vals, 1, 0)
		}
	}
	so, cases := o.ctl[0], o.simpleCases()
	return func(vals []int64, cycle int64) {
		idx := so.load(vals)
		if idx < 0 || idx >= n {
			sim.Fail(name, cycle, "selector index %d outside 0..%d", idx, n-1)
		}
		vals[slot] = cases[idx].load(vals)
	}
}
