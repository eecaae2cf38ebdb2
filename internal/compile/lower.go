package compile

// The lowering: the one walk over the analyzed specification. Every
// kernel family — scalar (fused.go), lane-loop (gang.go), bit-plane
// (bitparallel.go) — is built from the program this file produces and
// never sees the syntax tree. Three decisions are made here and nowhere
// else (§4.4 / Figure 4.1):
//
//   - constant function: an ALU whose function operand is constant is
//     marked folded and carries the function code, so each family
//     selects the specific operation instead of a dologic dispatch;
//   - constant select: a selector whose select operand is a constant in
//     range becomes a copy of the chosen case — the same op as an ALU
//     folded to "left" — and the other cases are never lowered. (A
//     constant out of range needs no decision: the dynamic selector
//     faults on it every cycle with the same message.)
//   - dead data latch: a memory whose operation is a constant read or
//     input never consumes its data operand, which becomes constant 0.
//
// With fold false (Options.NoFold) none of the three is taken and
// multi-part constant expressions stay sums evaluated at run time, so
// the ablation measures the folding and nothing else.
//
// Layout is deliberate: the lowering runs on every program-cache miss.
// Operands are 24 bytes; terms and selector cases are sub-sliced from
// two per-program arenas sized by one counting pass.

import (
	"repro/internal/rtl/ast"
	"repro/internal/rtl/sem"
	"repro/internal/sim"
)

// operand is one slot-resolved concatenation part: a constant, a whole
// slot, or a masked field of a slot, shifted left into its position in
// the concatenation. Constants carry their shift in val already.
type operand struct {
	slot  int
	val   int64  // constant value, pre-shifted
	mask  uint32 // field selection mask (field extracts only)
	from  uint8  // field low-bit position
	shift uint8  // left shift applied by expr.at; 0 for every simple operand
	field bool
	cnst  bool
}

// expr is a lowered expression: the sum of its terms. The overwhelmingly
// common expression is simple — one unshifted term — and the kernels
// copy that term into their closures and evaluate it with the inlinable
// operand.load / operand.at; anything else goes through expr.at.
type expr []operand

func (e expr) simple() bool { return len(e) == 1 && e[0].shift == 0 }

// constant returns the value of an expression that is one constant term
// (which every constant expression is, once folded).
func (e expr) constant() (int64, bool) {
	if len(e) == 1 && e[0].cnst {
		return e[0].val, true
	}
	return 0, false
}

// at evaluates the expression for one lane of a strided value vector:
// the single term loop behind every compound operand. Scalar kernels
// call it with stride 1, lane 0.
func (e expr) at(vals []int64, stride, lane int) int64 {
	var total int64
	for i := range e {
		total += e[i].at(vals, stride, lane) << e[i].shift
	}
	return total
}

// op is one combinational component. An ALU computes
// dologic(ctl, left, right); when folded, ctl is the constant fn and the
// kernels select that function's code. A selector (sel) routes
// cases[ctl].
type op struct {
	out    int    // output slot
	name   string // component name, for selector faults
	sel    bool
	folded bool
	fn     int64
	ctl    expr
	left   expr
	right  expr
	cases  []expr
}

// simple reports whether every operand is simple, i.e. whether the
// kernels can run the component without the term loop.
func (o *op) simple() bool {
	for _, e := range o.cases {
		if !e.simple() {
			return false
		}
	}
	return o.ctl.simple() && (o.sel || o.left.simple() && o.right.simple())
}

// simpleCases flattens a simple selector's cases to one operand each,
// for the kernels to index without the term loop.
func (o *op) simpleCases() []operand {
	cases := make([]operand, len(o.cases))
	for i, e := range o.cases {
		cases[i] = e[0]
	}
	return cases
}

// latch is one memory's input triple, with the memory's output slot and
// initial image for the 0/1 classification.
type latch struct {
	slot int
	init []int64
	addr expr
	data expr
	opn  expr
}

func (m *latch) simple() bool { return m.addr.simple() && m.data.simple() && m.opn.simple() }

// program is a lowered specification: ops in dependency order, latches
// in memory-ordinal order, over slots value-vector slots.
type program struct {
	slots   int
	ops     []op
	latches []latch
}

// lowering carries the arenas while lower walks the specification.
type lowering struct {
	info  *sem.Info
	fold  bool
	terms []operand
	cases []expr
}

func lower(info *sem.Info, fold bool) program {
	nTerm, nCase := 0, 0
	for _, comp := range info.Comb {
		switch comp := comp.(type) {
		case *ast.ALU:
			nTerm += len(comp.Funct.Parts) + len(comp.Left.Parts) + len(comp.Right.Parts)
		case *ast.Selector:
			nTerm += len(comp.Select.Parts) + 1 // a folded select adds its function
			nCase += len(comp.Cases)
			for i := range comp.Cases {
				nTerm += len(comp.Cases[i].Parts)
			}
		}
	}
	for _, m := range info.Mems {
		nTerm += len(m.Addr.Parts) + len(m.Data.Parts) + len(m.Opn.Parts)
	}
	lw := lowering{info: info, fold: fold, terms: make([]operand, 0, nTerm), cases: make([]expr, 0, nCase)}
	p := program{
		slots:   len(info.Order),
		ops:     make([]op, 0, len(info.Comb)),
		latches: make([]latch, 0, len(info.Mems)),
	}
	for _, comp := range info.Comb {
		switch comp := comp.(type) {
		case *ast.ALU:
			o := op{out: info.Slot[comp.Name], name: comp.Name,
				ctl: lw.expr(&comp.Funct), left: lw.expr(&comp.Left), right: lw.expr(&comp.Right)}
			if fv, ok := o.ctl.constant(); ok && fold {
				o.folded, o.fn = true, fv
			}
			p.ops = append(p.ops, o)
		case *ast.Selector:
			o := op{out: info.Slot[comp.Name], name: comp.Name, ctl: lw.expr(&comp.Select)}
			if sv, ok := o.ctl.constant(); ok && fold && sv >= 0 && sv < int64(len(comp.Cases)) {
				// A copy of the chosen case, which is the ALU "left";
				// right is never read, so any constant serves.
				o.folded, o.fn, o.ctl = true, sim.FnLeft, lw.constant(sim.FnLeft)
				o.left, o.right = lw.expr(&comp.Cases[sv]), o.ctl
			} else {
				o.sel = true
				start := len(lw.cases)
				for i := range comp.Cases {
					lw.cases = append(lw.cases, lw.expr(&comp.Cases[i]))
				}
				o.cases = lw.cases[start:len(lw.cases):len(lw.cases)]
			}
			p.ops = append(p.ops, o)
		}
	}
	for _, m := range info.Mems {
		l := latch{slot: info.Slot[m.Name], init: m.Init, addr: lw.expr(&m.Addr), opn: lw.expr(&m.Opn)}
		if v, ok := l.opn.constant(); ok && fold && (v&3 == sim.OpRead || v&3 == sim.OpInput) {
			l.data = lw.constant(0)
		} else {
			l.data = lw.expr(&m.Data)
		}
		p.latches = append(p.latches, l)
	}
	return p
}

// constant appends a one-term constant expression to the arena.
func (lw *lowering) constant(v int64) expr {
	lw.terms = append(lw.terms, operand{cnst: true, val: v})
	n := len(lw.terms)
	return lw.terms[n-1 : n : n]
}

// expr lowers a concatenation: least significant part first, each part
// shifted past the widths below it with the evaluators' bookkeeping
// (width-bounded parts accumulate, unbounded parts set the shift to 31).
func (lw *lowering) expr(e *ast.Expr) expr {
	if lw.fold {
		if v, ok := e.ConstValue(); ok {
			return lw.constant(v)
		}
	}
	start, shift := len(lw.terms), 0
	for i := len(e.Parts) - 1; i >= 0; i-- {
		p := e.Parts[i]
		lw.terms = append(lw.terms, lw.term(p, shift))
		if w := p.Width(); w == ast.WidthUnbounded {
			shift = ast.WidthUnbounded
		} else {
			shift += w
		}
	}
	return lw.terms[start:len(lw.terms):len(lw.terms)]
}

// term resolves one concatenation part to (slot, mask, from, shift) or
// a pre-shifted constant. A shift of 64 or more clears an int64 whatever
// its size, so it saturates there to fit the operand.
func (lw *lowering) term(p ast.Part, shift int) operand {
	sh := uint(min(shift, 64))
	switch p := p.(type) {
	case *ast.Num:
		return operand{cnst: true, val: p.Masked() << sh}
	case *ast.Bits:
		return operand{cnst: true, val: p.Value() << sh}
	case *ast.Ref:
		o := operand{slot: lw.info.Slot[p.Name], shift: uint8(sh)}
		if p.Mode != ast.RefWhole {
			o.field, o.mask, o.from = true, uint32(p.SelMask()), uint8(p.From)
		}
		return o
	default:
		panic("compile: unknown part type")
	}
}
