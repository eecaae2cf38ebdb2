package compile

// Gang kernels (sim.GangStepper): the scalar kernels re-specialized
// across machines instead of across operands.
//
// The scalar kernels (fused.go) removed the per-operand indirect call;
// the per-component call remains, and a fleet of N machines pays it N
// times per component per cycle. Gang kernels hoist the component
// dispatch out of the fleet: each op of the lowered program becomes one
// closure whose body is a loop over the gang's active lanes, reading
// and writing the struct-of-arrays layout sim.Gang maintains
// (vals[slot*stride+lane]). One indirect call per component per cycle
// serves the whole gang, and the lane loop's body is the inlinable
// lower.Term.At — the scalar kernels' load, now with the component
// column contiguous in memory across lanes.
//
// A component with a compound operand runs the lowering's term loop per
// lane, so every compiled program gangs. Kernels are built lazily on
// first gang use (most programs never gang) and are immutable
// afterwards, preserving the evaluator's statelessness contract.
//
// Per-lane runtime errors (selector faults) leave through
// sim.FailLane: the gang recovers the fault, retires the lane and
// re-runs the cycle's evaluation for the survivors, so kernels must be
// idempotent within a cycle — they are, because evaluation only
// derives from pre-commit state.

import (
	"repro/internal/lower"
	"repro/internal/sim"
)

// gangFn evaluates one combinational component for every active lane.
type gangFn func(vals []int64, stride int, active []int, cycles []int64)

// gangLatchFn latches one memory's inputs for every active lane.
type gangLatchFn func(vals, addr, data, opn []int64, stride int, active []int)

// StepCycleGang implements sim.GangStepper: component-major evaluation
// of one cycle for every active lane, bit-identical per lane to
// StepCycle on a machine in the same state.
func (c *Compiled) StepCycleGang(vals []int64, addr, data, opn []int64, stride int, active []int, cycles []int64) {
	c.gangOnce.Do(c.buildGang)
	for _, fn := range c.gangComb {
		fn(vals, stride, active, cycles)
	}
	for _, fn := range c.gangLatches {
		fn(vals, addr, data, opn, stride, active)
	}
}

// buildGang builds the lane-loop kernels, once, on first gang use.
func (c *Compiled) buildGang() {
	comb := make([]gangFn, len(c.prog.Ops))
	for i := range c.prog.Ops {
		if o := &c.prog.Ops[i]; o.Sel {
			comb[i] = gangSelector(o)
		} else {
			comb[i] = gangALU(o)
		}
	}
	latches := make([]gangLatchFn, len(c.prog.Latches))
	for i := range c.prog.Latches {
		latches[i] = gangLatch(i, &c.prog.Latches[i])
	}
	c.gangComb, c.gangLatches = comb, latches
}

// gangALU is scalarALU's lane-loop form: a folded function selects the
// specific operation, both operands load inline, and one closure call
// evaluates the component for the whole gang.
func gangALU(o *lower.Op) gangFn {
	slot := o.Out
	if !o.Simple() {
		fx, lx, rx := o.Ctl, o.Left, o.Right
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				vals[ob+l] = sim.DoLogic(fx.At(vals, stride, l), lx.At(vals, stride, l), rx.At(vals, stride, l))
			}
		}
	}
	fo, lo, ro := o.Ctl[0], o.Left[0], o.Right[0]
	if !o.Folded {
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				vals[ob+l] = sim.DoLogic(fo.At(vals, stride, l), lo.At(vals, stride, l), ro.At(vals, stride, l))
			}
		}
	}
	switch o.Fn {
	case sim.FnRight:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				vals[ob+l] = ro.At(vals, stride, l)
			}
		}
	case sim.FnLeft:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				vals[ob+l] = lo.At(vals, stride, l)
			}
		}
	case sim.FnNot:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				vals[ob+l] = sim.Mask - lo.At(vals, stride, l)
			}
		}
	case sim.FnAdd:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				vals[ob+l] = lo.At(vals, stride, l) + ro.At(vals, stride, l)
			}
		}
	case sim.FnSub:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				vals[ob+l] = lo.At(vals, stride, l) - ro.At(vals, stride, l)
			}
		}
	case sim.FnMul:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				vals[ob+l] = lo.At(vals, stride, l) * ro.At(vals, stride, l)
			}
		}
	case sim.FnAnd:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				vals[ob+l] = sim.Land(lo.At(vals, stride, l), ro.At(vals, stride, l))
			}
		}
	case sim.FnOr:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				lv, rv := lo.At(vals, stride, l), ro.At(vals, stride, l)
				vals[ob+l] = lv + rv - sim.Land(lv, rv)
			}
		}
	case sim.FnXor:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				lv, rv := lo.At(vals, stride, l), ro.At(vals, stride, l)
				vals[ob+l] = lv + rv - sim.Land(lv, rv)*2
			}
		}
	case sim.FnEq:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				if lo.At(vals, stride, l) == ro.At(vals, stride, l) {
					vals[ob+l] = 1
				} else {
					vals[ob+l] = 0
				}
			}
		}
	case sim.FnLt:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				if lo.At(vals, stride, l) < ro.At(vals, stride, l) {
					vals[ob+l] = 1
				} else {
					vals[ob+l] = 0
				}
			}
		}
	case sim.FnShl:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				vals[ob+l] = sim.DoLogic(sim.FnShl, lo.At(vals, stride, l), ro.At(vals, stride, l))
			}
		}
	default:
		return func(vals []int64, stride int, active []int, _ []int64) {
			ob := slot * stride
			for _, l := range active {
				vals[ob+l] = 0
			}
		}
	}
}

// gangSelector is scalarSelector's lane-loop form. A lane whose index
// is out of range faults out through sim.FailLane with the scalar
// path's exact error.
func gangSelector(o *lower.Op) gangFn {
	slot, name, n := o.Out, o.Name, int64(len(o.Cases))
	if !o.Simple() {
		sel, cases := o.Ctl, o.Cases
		return func(vals []int64, stride int, active []int, cycles []int64) {
			ob := slot * stride
			for _, l := range active {
				idx := sel.At(vals, stride, l)
				if idx < 0 || idx >= n {
					sim.FailLane(l, name, cycles[l], "selector index %d outside 0..%d", idx, n-1)
				}
				vals[ob+l] = cases[idx].At(vals, stride, l)
			}
		}
	}
	so, cases := o.Ctl[0], simpleCases(o)
	return func(vals []int64, stride int, active []int, cycles []int64) {
		ob := slot * stride
		for _, l := range active {
			idx := so.At(vals, stride, l)
			if idx < 0 || idx >= n {
				sim.FailLane(l, name, cycles[l], "selector index %d outside 0..%d", idx, n-1)
			}
			vals[ob+l] = cases[idx].At(vals, stride, l)
		}
	}
}

// gangLatch is scalarLatch's lane-loop form.
func gangLatch(i int, m *lower.Latch) gangLatchFn {
	if !m.Simple() {
		a, d, o := m.Addr, m.Data, m.Opn
		return func(vals, addr, data, opn []int64, stride int, active []int) {
			base := i * stride
			for _, l := range active {
				addr[base+l] = a.At(vals, stride, l)
				data[base+l] = d.At(vals, stride, l)
				opn[base+l] = o.At(vals, stride, l)
			}
		}
	}
	ao, do, oo := m.Addr[0], m.Data[0], m.Opn[0]
	return func(vals, addr, data, opn []int64, stride int, active []int) {
		base := i * stride
		for _, l := range active {
			addr[base+l] = ao.At(vals, stride, l)
			data[base+l] = do.At(vals, stride, l)
			opn[base+l] = oo.At(vals, stride, l)
		}
	}
}
