package compile

// The scalar kernels (sim.Evaluator): one specialized closure per
// component and one per memory latch, built from the lowered program.
//
// Profiling a closure-per-operand design shows the cycle cost is
// dominated not by the arithmetic but by indirect calls for trivial
// operands — a whole-component reference is a one-line load whose call
// overhead exceeds the load itself. Each kernel therefore copies its
// simple operands (a constant, a whole slot load or a masked field
// extract) into its closure, where they are branches of the inlinable
// lower.Term.Load instead of indirect calls, and a constant function
// selects the specific operation. A component with a compound operand
// (a multi-part concatenation — rare in hand-written machines) runs one
// closure over the lowering's term loop instead.

import (
	"repro/internal/lower"
	"repro/internal/sim"
)

// combFn computes one combinational component's output into vals.
type combFn func(vals []int64, cycle int64)

// latchFn latches one memory's inputs into its ordinal position.
type latchFn func(vals []int64, addr, data, opn []int64)

// StepCycle implements sim.Evaluator: the component kernels in
// dependency order, then the latch kernels.
func (c *Compiled) StepCycle(vals []int64, addr, data, opn []int64, cycle int64) {
	for _, fn := range c.comb {
		fn(vals, cycle)
	}
	for _, fn := range c.latches {
		fn(vals, addr, data, opn)
	}
}

// simpleCases flattens a simple selector's cases to one term each, for
// the kernels to index without the term loop.
func simpleCases(o *lower.Op) []lower.Term {
	cases := make([]lower.Term, len(o.Cases))
	for i, e := range o.Cases {
		cases[i] = e[0]
	}
	return cases
}

// scalarLatch builds one memory's latch kernel with the memory's
// ordinal burned in.
func scalarLatch(i int, m *lower.Latch) latchFn {
	if !m.Simple() {
		a, d, o := m.Addr, m.Data, m.Opn
		return func(vals []int64, addr, data, opn []int64) {
			addr[i] = a.At(vals, 1, 0)
			data[i] = d.At(vals, 1, 0)
			opn[i] = o.At(vals, 1, 0)
		}
	}
	ao, do, oo := m.Addr[0], m.Data[0], m.Opn[0]
	return func(vals []int64, addr, data, opn []int64) {
		addr[i] = ao.Load(vals)
		data[i] = do.Load(vals)
		opn[i] = oo.Load(vals)
	}
}

// scalarALU mirrors Figure 4.1's "add := left + 3048" against the
// generic "alu := dologic(compute, left, 3048)": a folded function is
// the specific operation over operand-direct loads.
func scalarALU(o *lower.Op) combFn {
	slot := o.Out
	if !o.Simple() {
		// sim.DoLogic reproduces every specialization below exactly, and
		// the (constant) ctl term evaluates to the folded function.
		f, l, r := o.Ctl, o.Left, o.Right
		return func(vals []int64, _ int64) {
			vals[slot] = sim.DoLogic(f.At(vals, 1, 0), l.At(vals, 1, 0), r.At(vals, 1, 0))
		}
	}
	fo, lo, ro := o.Ctl[0], o.Left[0], o.Right[0]
	if !o.Folded {
		return func(vals []int64, _ int64) {
			vals[slot] = sim.DoLogic(fo.Load(vals), lo.Load(vals), ro.Load(vals))
		}
	}
	switch o.Fn {
	case sim.FnRight:
		return func(vals []int64, _ int64) { vals[slot] = ro.Load(vals) }
	case sim.FnLeft:
		return func(vals []int64, _ int64) { vals[slot] = lo.Load(vals) }
	case sim.FnNot:
		return func(vals []int64, _ int64) { vals[slot] = sim.Mask - lo.Load(vals) }
	case sim.FnAdd:
		return func(vals []int64, _ int64) { vals[slot] = lo.Load(vals) + ro.Load(vals) }
	case sim.FnSub:
		return func(vals []int64, _ int64) { vals[slot] = lo.Load(vals) - ro.Load(vals) }
	case sim.FnMul:
		return func(vals []int64, _ int64) { vals[slot] = lo.Load(vals) * ro.Load(vals) }
	case sim.FnAnd:
		return func(vals []int64, _ int64) { vals[slot] = sim.Land(lo.Load(vals), ro.Load(vals)) }
	case sim.FnOr:
		return func(vals []int64, _ int64) {
			l, r := lo.Load(vals), ro.Load(vals)
			vals[slot] = l + r - sim.Land(l, r)
		}
	case sim.FnXor:
		return func(vals []int64, _ int64) {
			l, r := lo.Load(vals), ro.Load(vals)
			vals[slot] = l + r - sim.Land(l, r)*2
		}
	case sim.FnEq:
		return func(vals []int64, _ int64) {
			if lo.Load(vals) == ro.Load(vals) {
				vals[slot] = 1
			} else {
				vals[slot] = 0
			}
		}
	case sim.FnLt:
		return func(vals []int64, _ int64) {
			if lo.Load(vals) < ro.Load(vals) {
				vals[slot] = 1
			} else {
				vals[slot] = 0
			}
		}
	case sim.FnShl:
		// Shift keeps dologic's loop semantics.
		return func(vals []int64, _ int64) {
			vals[slot] = sim.DoLogic(sim.FnShl, lo.Load(vals), ro.Load(vals))
		}
	default:
		// Zero, unused and out-of-range constants all yield 0.
		return func(vals []int64, _ int64) { vals[slot] = 0 }
	}
}

// scalarSelector routes cases[ctl]. An out-of-range index — dynamic or
// constant — faults at run time (the original generated a Pascal case
// statement that faulted at run time too).
func scalarSelector(o *lower.Op) combFn {
	slot, name, n := o.Out, o.Name, int64(len(o.Cases))
	if !o.Simple() {
		sel, cases := o.Ctl, o.Cases
		return func(vals []int64, cycle int64) {
			idx := sel.At(vals, 1, 0)
			if idx < 0 || idx >= n {
				sim.Fail(name, cycle, "selector index %d outside 0..%d", idx, n-1)
			}
			vals[slot] = cases[idx].At(vals, 1, 0)
		}
	}
	so, cases := o.Ctl[0], simpleCases(o)
	return func(vals []int64, cycle int64) {
		idx := so.Load(vals)
		if idx < 0 || idx >= n {
			sim.Fail(name, cycle, "selector index %d outside 0..%d", idx, n-1)
		}
		vals[slot] = cases[idx].Load(vals)
	}
}
