package compile

// Gang kernels (sim.GangStepper): the scalar kernels re-specialized
// across machines instead of across operands.
//
// The scalar kernels (fused.go) removed the per-operand indirect call;
// the per-component call remains, and a fleet of N machines pays it N
// times per component per cycle. Gang kernels hoist the component
// dispatch out of the fleet: each op of the lowered program becomes one
// closure whose body is a loop over the gang's live lanes, reading and
// writing the struct-of-arrays layout sim.Gang maintains
// (vals[slot*stride+lane]). One indirect call per component per cycle
// serves the whole gang.
//
// sim.Gang keeps its live lanes in the dense prefix [0, n) of its
// physical slots, so every lane loop runs over length-n sub-slices of
// the operand and output columns, and each simple operand's kind
// (constant, whole slot, field) is resolved when the closure is built
// (lane below), never tested per lane. The common shapes get a loop of
// their own — a folded ALU over a column and a column or a constant is
// a load, the operation and a store per lane — and the rest share one
// branch-free loader.
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

// gangFn evaluates one combinational component for the live lanes
// [0, n).
type gangFn func(vals []int64, stride, n int, cycles []int64)

// gangLatchFn latches one memory's inputs for the live lanes [0, n).
type gangLatchFn func(vals, addr, data, opn []int64, stride, n int)

// StepCycleGang implements sim.GangStepper: component-major evaluation
// of one cycle for the live lanes [0, n), bit-identical per lane to
// StepCycle on a machine in the same state.
func (c *Compiled) StepCycleGang(vals []int64, addr, data, opn []int64, stride, n int, cycles []int64) {
	c.gangOnce.Do(c.buildGang)
	for _, fn := range c.gangComb {
		fn(vals, stride, n, cycles)
	}
	for _, fn := range c.gangLatches {
		fn(vals, addr, data, opn, stride, n)
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

// lane is a simple term resolved for the dense lane loops: lane i's
// value is (col[i]&mask)>>from + c over the term's slot column. A whole
// slot has mask -1; a field has its mask and low bit (uint32(v)&m is
// v&int64(m) for a 32-bit mask, and the masked value is non-negative,
// so the arithmetic shift is the logical one); a constant has mask 0
// over the kernel's own output column and its value in c.
type lane struct {
	slot int
	mask int64
	from uint8
	c    int64
}

func laneOf(t lower.Term, own int) lane {
	switch {
	case t.Const:
		return lane{slot: own, c: t.Val}
	case t.Field:
		return lane{slot: t.Slot, mask: int64(t.Mask), from: t.From}
	}
	return lane{slot: t.Slot, mask: -1}
}

func (d lane) whole() bool { return d.mask == -1 }
func (d lane) konst() bool { return d.mask == 0 }
func (d lane) field() bool { return !d.whole() && !d.konst() }

// col returns the term's column for the live lanes.
func (d lane) col(vals []int64, stride, n int) []int64 { return vals[d.slot*stride:][:n] }

// load is the general dense loader, for the shapes no loop below is
// specialized to.
func (d lane) load(col []int64, i int) int64 { return (col[i]&d.mask)>>(d.from&63) + d.c }

// store writes the term's value for every live lane into dst: a fill, a
// copy or one field-extract loop, chosen once per call.
func (d lane) store(dst, vals []int64, stride int) {
	switch src := d.col(vals, stride, len(dst)); {
	case d.konst() && d.c == 0:
		clear(dst)
	case d.konst():
		for i := range dst {
			dst[i] = d.c
		}
	case d.whole():
		copy(dst, src)
	default:
		m, f := d.mask, d.from&63
		for i, v := range src[:len(dst)] {
			dst[i] = (v & m) >> f
		}
	}
}

// dense2 is one folded two-operand function's lane loops: over two
// columns (cc), and over a column and a constant (ck).
type dense2 struct {
	cc func(out, a, b []int64)
	ck func(out, a []int64, k int64)
}

// denseOps holds the folded functions gangALU specializes; the rest
// (shift, and the no-op codes) take the general loader.
var denseOps = map[int64]dense2{
	sim.FnAdd: {
		func(out, a, b []int64) {
			for i, x := range a[:len(out)] {
				out[i] = x + b[i]
			}
		},
		func(out, a []int64, k int64) {
			for i, x := range a[:len(out)] {
				out[i] = x + k
			}
		},
	},
	sim.FnSub: {
		func(out, a, b []int64) {
			for i, x := range a[:len(out)] {
				out[i] = x - b[i]
			}
		},
		func(out, a []int64, k int64) {
			for i, x := range a[:len(out)] {
				out[i] = x - k
			}
		},
	},
	sim.FnMul: {
		func(out, a, b []int64) {
			for i, x := range a[:len(out)] {
				out[i] = x * b[i]
			}
		},
		func(out, a []int64, k int64) {
			for i, x := range a[:len(out)] {
				out[i] = x * k
			}
		},
	},
	sim.FnAnd: {
		func(out, a, b []int64) {
			for i, x := range a[:len(out)] {
				out[i] = sim.Land(x, b[i])
			}
		},
		func(out, a []int64, k int64) {
			for i, x := range a[:len(out)] {
				out[i] = sim.Land(x, k)
			}
		},
	},
	sim.FnOr: {
		func(out, a, b []int64) {
			for i, x := range a[:len(out)] {
				out[i] = x + b[i] - sim.Land(x, b[i])
			}
		},
		func(out, a []int64, k int64) {
			for i, x := range a[:len(out)] {
				out[i] = x + k - sim.Land(x, k)
			}
		},
	},
	sim.FnXor: {
		func(out, a, b []int64) {
			for i, x := range a[:len(out)] {
				out[i] = x + b[i] - sim.Land(x, b[i])*2
			}
		},
		func(out, a []int64, k int64) {
			for i, x := range a[:len(out)] {
				out[i] = x + k - sim.Land(x, k)*2
			}
		},
	},
	sim.FnEq: {
		func(out, a, b []int64) {
			for i, x := range a[:len(out)] {
				out[i] = b2i(x == b[i])
			}
		},
		func(out, a []int64, k int64) {
			for i, x := range a[:len(out)] {
				out[i] = b2i(x == k)
			}
		},
	},
	sim.FnLt: {
		func(out, a, b []int64) {
			for i, x := range a[:len(out)] {
				out[i] = b2i(x < b[i])
			}
		},
		func(out, a []int64, k int64) {
			for i, x := range a[:len(out)] {
				out[i] = b2i(x < k)
			}
		},
	},
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// gangALU is scalarALU's lane-loop form: a folded function selects the
// specific operation's dense loops, and one closure call evaluates the
// component for the whole gang.
//
// The loops take their left operand as a column and their right as a
// column or a constant. A commutative function takes a field or
// constant operand on the left; a left operand that is not a whole slot
// is first stored into the output column, which the loop then reads as
// its left column (no component reads its own output). What does not
// fit — a field on the right of a non-commutative function, or on both
// sides — runs the general loader.
func gangALU(o *lower.Op) gangFn {
	slot := o.Out
	if !o.Simple() {
		fx, lx, rx := o.Ctl, o.Left, o.Right
		return func(vals []int64, stride, n int, _ []int64) {
			out := vals[slot*stride:][:n]
			for i := range out {
				out[i] = sim.DoLogic(fx.At(vals, stride, i), lx.At(vals, stride, i), rx.At(vals, stride, i))
			}
		}
	}
	fo, lo, ro := laneOf(o.Ctl[0], slot), laneOf(o.Left[0], slot), laneOf(o.Right[0], slot)
	op, dense := denseOps[o.Fn]
	switch {
	case !o.Folded || o.Fn == sim.FnShl:
	case o.Fn == sim.FnLeft || o.Fn == sim.FnRight:
		src := lo
		if o.Fn == sim.FnRight {
			src = ro
		}
		return func(vals []int64, stride, n int, _ []int64) { src.store(vals[slot*stride:][:n], vals, stride) }
	case o.Fn == sim.FnNot:
		return func(vals []int64, stride, n int, _ []int64) {
			out := vals[slot*stride:][:n]
			lo.store(out, vals, stride)
			for i, x := range out {
				out[i] = sim.Mask - x
			}
		}
	case !dense:
		// Zero, unused and out-of-range constants all yield 0.
		return func(vals []int64, stride, n int, _ []int64) { clear(vals[slot*stride:][:n]) }
	default:
		if commutes := o.Fn != sim.FnSub && o.Fn != sim.FnLt; commutes && (ro.field() || lo.konst() && !ro.konst()) {
			lo, ro = ro, lo
		}
		if ro.field() {
			break
		}
		return func(vals []int64, stride, n int, _ []int64) {
			out, a := vals[slot*stride:][:n], lo.col(vals, stride, n)
			if !lo.whole() {
				lo.store(out, vals, stride)
				a = out
			}
			if ro.whole() {
				op.cc(out, a, ro.col(vals, stride, n))
			} else {
				op.ck(out, a, ro.c)
			}
		}
	}
	return func(vals []int64, stride, n int, _ []int64) {
		out, f, a, b := vals[slot*stride:][:n], fo.col(vals, stride, n), lo.col(vals, stride, n), ro.col(vals, stride, n)
		for i := range out {
			out[i] = sim.DoLogic(fo.load(f, i), lo.load(a, i), ro.load(b, i))
		}
	}
}

// gangSelector is scalarSelector's lane-loop form. A lane whose index
// is out of range faults out through sim.FailLane with the scalar
// path's exact error, and with its output untouched. A selector whose
// cases are all constant is a table lookup, one whose cases are all
// whole slots a column gather.
func gangSelector(o *lower.Op) gangFn {
	slot, name, nc := o.Out, o.Name, len(o.Cases)
	if !o.Simple() {
		sel, cases := o.Ctl, o.Cases
		return func(vals []int64, stride, n int, cycles []int64) {
			out := vals[slot*stride:][:n]
			for i := range out {
				idx := sel.At(vals, stride, i)
				if uint64(idx) >= uint64(nc) {
					sim.FailLane(i, name, cycles[i], "selector index %d outside 0..%d", idx, nc-1)
				}
				out[i] = cases[idx].At(vals, stride, i)
			}
		}
	}
	so := laneOf(o.Ctl[0], slot)
	cases, table, slots := make([]lane, nc), make([]int64, nc), make([]int, nc)
	consts, wholes := true, true
	for k, e := range o.Cases {
		cases[k], table[k], slots[k] = laneOf(e[0], slot), e[0].Val, e[0].Slot
		consts, wholes = consts && e[0].Const, wholes && cases[k].whole()
	}
	return func(vals []int64, stride, n int, cycles []int64) {
		out, s := vals[slot*stride:][:n], so.col(vals, stride, n)
		for i := range out {
			idx := so.load(s, i)
			if uint64(idx) >= uint64(nc) {
				sim.FailLane(i, name, cycles[i], "selector index %d outside 0..%d", idx, nc-1)
			}
			switch {
			case consts:
				out[i] = table[idx]
			case wholes:
				out[i] = vals[slots[idx]*stride+i]
			default:
				cs := &cases[idx]
				out[i] = cs.load(vals, cs.slot*stride+i)
			}
		}
	}
}

// gangLatch is scalarLatch's lane-loop form: three column stores.
func gangLatch(i int, m *lower.Latch) gangLatchFn {
	if !m.Simple() {
		a, d, o := m.Addr, m.Data, m.Opn
		return func(vals, addr, data, opn []int64, stride, n int) {
			base := i * stride
			for l := 0; l < n; l++ {
				addr[base+l] = a.At(vals, stride, l)
				data[base+l] = d.At(vals, stride, l)
				opn[base+l] = o.At(vals, stride, l)
			}
		}
	}
	ao, do, oo := laneOf(m.Addr[0], m.Slot), laneOf(m.Data[0], m.Slot), laneOf(m.Opn[0], m.Slot)
	return func(vals, addr, data, opn []int64, stride, n int) {
		base := i * stride
		ao.store(addr[base:][:n], vals, stride)
		do.store(data[base:][:n], vals, stride)
		oo.store(opn[base:][:n], vals, stride)
	}
}
