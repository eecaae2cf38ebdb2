// Package lower is the one walk over the analyzed specification. Every
// consumer — the scalar, lane-loop and bit-plane kernel families in
// internal/compile, the bytecode ablation's generic loop, the native
// worker and the Go and Pascal printers in internal/codegen — is built
// from the Program this package produces. The kernels and the worker
// never see the syntax tree; the standalone printers read the analysis
// only for what no evaluator needs (the spec's comment, its default
// cycle count, the traced names and the operation widths that decide
// read/write traces). Three decisions are made here and nowhere else
// (§4.4 / Figure 4.1):
//
//   - constant function: an ALU whose function operand is constant is
//     marked folded and carries the function code, so each consumer
//     selects (or prints) the specific operation instead of a dologic
//     dispatch;
//   - constant select: a selector whose select operand is a constant in
//     range becomes a copy of the chosen case — the same op as an ALU
//     folded to "left" — and the other cases are never lowered. (A
//     constant out of range needs no decision: the dynamic selector
//     faults on it every cycle with the same message.)
//   - dead data latch: a memory whose operation is a constant read or
//     input never consumes its data operand, which becomes constant 0.
//
// With fold false (compile.Options.NoFold, and always for the bytecode
// backend) none of the three is taken and multi-part constant
// expressions stay sums evaluated at run time, so the ablations measure
// the folding and nothing else.
//
// The Program is a read-only view: consumers index it and never modify
// it. Layout is deliberate: the lowering runs on every program-cache
// miss. Terms are 24 bytes; terms and selector cases are sub-sliced
// from two per-program arenas sized by one counting pass.
package lower

import (
	"repro/internal/rtl/ast"
	"repro/internal/rtl/sem"
	"repro/internal/sim"
)

// Term is one slot-resolved concatenation part: a constant, a whole
// slot, or a masked field of a slot, shifted left into its position in
// the concatenation. Constants carry their shift in Val already.
type Term struct {
	Slot  int
	Val   int64  // constant value, pre-shifted
	Mask  uint32 // field selection mask (field extracts only)
	From  uint8  // field low-bit position
	Shift uint8  // left shift applied by Expr.At; 0 for every simple term
	Field bool
	Const bool
}

// Load evaluates a simple term against a value vector. It must stay
// small enough to inline into the kernel closures, which is why
// compound expressions are kept out of it.
func (t *Term) Load(vals []int64) int64 {
	if t.Const {
		return t.Val
	}
	v := vals[t.Slot]
	if t.Field {
		v = int64((uint32(v) & t.Mask) >> t.From)
	}
	return v
}

// At evaluates the term for one lane of a gang's strided value vector.
// Like Load, it must stay small enough to inline into the lane loops.
func (t *Term) At(vals []int64, stride, lane int) int64 {
	if t.Const {
		return t.Val
	}
	v := vals[t.Slot*stride+lane]
	if t.Field {
		v = int64((uint32(v) & t.Mask) >> t.From)
	}
	return v
}

// Expr is a lowered expression: the sum of its terms, least significant
// first. The overwhelmingly common expression is simple — one unshifted
// term — and the kernels copy that term into their closures and evaluate
// it with the inlinable Term.Load / Term.At; anything else goes through
// Expr.At.
type Expr []Term

func (e Expr) Simple() bool { return len(e) == 1 && e[0].Shift == 0 }

// Constant returns the value of an expression that is one constant term
// (which every constant expression is, once folded).
func (e Expr) Constant() (int64, bool) {
	if len(e) == 1 && e[0].Const {
		return e[0].Val, true
	}
	return 0, false
}

// At evaluates the expression for one lane of a strided value vector:
// the single term loop behind every compound operand and every bytecode
// operand. Scalar callers pass stride 1, lane 0. A constant is added
// as is, because its value is pre-shifted; skipping the variable shift
// for it is measurable in the bytecode loop, where most terms are
// constants.
func (e Expr) At(vals []int64, stride, lane int) int64 {
	var total int64
	for i := range e {
		if t := &e[i]; t.Const {
			total += t.Val
		} else {
			total += t.At(vals, stride, lane) << t.Shift
		}
	}
	return total
}

// Op is one combinational component. An ALU computes
// dologic(Ctl, Left, Right); when Folded, Ctl is the constant Fn and
// consumers select that function's code. A selector (Sel) routes
// Cases[Ctl].
type Op struct {
	Out    int    // output slot
	Name   string // component name, for selector faults
	Sel    bool
	Folded bool
	Fn     int64
	Ctl    Expr
	Left   Expr
	Right  Expr
	Cases  []Expr
}

// Simple reports whether every operand is simple, i.e. whether the
// kernels can run the component without the term loop.
func (o *Op) Simple() bool {
	for _, e := range o.Cases {
		if !e.Simple() {
			return false
		}
	}
	return o.Ctl.Simple() && (o.Sel || o.Left.Simple() && o.Right.Simple())
}

// Latch is one memory's input triple, with the memory's output slot and
// initial image.
type Latch struct {
	Slot int
	Init []int64
	Addr Expr
	Data Expr
	Opn  Expr
}

func (m *Latch) Simple() bool { return m.Addr.Simple() && m.Data.Simple() && m.Opn.Simple() }

// Program is a lowered specification: Ops in dependency order, Latches
// in memory-ordinal order, over Slots value-vector slots.
type Program struct {
	Slots   int
	Ops     []Op
	Latches []Latch
}

// lowering carries the arenas while Lower walks the specification.
type lowering struct {
	info  *sem.Info
	fold  bool
	terms []Term
	cases []Expr
}

// Lower lowers info, taking the §4.4 decisions when fold is set.
func Lower(info *sem.Info, fold bool) Program {
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
	lw := lowering{info: info, fold: fold, terms: make([]Term, 0, nTerm), cases: make([]Expr, 0, nCase)}
	p := Program{
		Slots:   len(info.Order),
		Ops:     make([]Op, 0, len(info.Comb)),
		Latches: make([]Latch, 0, len(info.Mems)),
	}
	// Order is Comb then Mems, so a component's slot is its position.
	for slot, comp := range info.Comb {
		switch comp := comp.(type) {
		case *ast.ALU:
			o := Op{Out: slot, Name: comp.Name,
				Ctl: lw.expr(&comp.Funct), Left: lw.expr(&comp.Left), Right: lw.expr(&comp.Right)}
			if fv, ok := o.Ctl.Constant(); ok && fold {
				o.Folded, o.Fn = true, fv
			}
			p.Ops = append(p.Ops, o)
		case *ast.Selector:
			o := Op{Out: slot, Name: comp.Name, Ctl: lw.expr(&comp.Select)}
			if sv, ok := o.Ctl.Constant(); ok && fold && sv >= 0 && sv < int64(len(comp.Cases)) {
				// A copy of the chosen case, which is the ALU "left";
				// right is never read, so any constant serves.
				o.Folded, o.Fn, o.Ctl = true, sim.FnLeft, lw.constant(sim.FnLeft)
				o.Left, o.Right = lw.expr(&comp.Cases[sv]), o.Ctl
			} else {
				o.Sel = true
				start := len(lw.cases)
				for i := range comp.Cases {
					lw.cases = append(lw.cases, lw.expr(&comp.Cases[i]))
				}
				o.Cases = lw.cases[start:len(lw.cases):len(lw.cases)]
			}
			p.Ops = append(p.Ops, o)
		}
	}
	for i, m := range info.Mems {
		l := Latch{Slot: len(info.Comb) + i, Init: m.Init, Addr: lw.expr(&m.Addr), Opn: lw.expr(&m.Opn)}
		if v, ok := l.Opn.Constant(); ok && fold && (v&3 == sim.OpRead || v&3 == sim.OpInput) {
			l.Data = lw.constant(0)
		} else {
			l.Data = lw.expr(&m.Data)
		}
		p.Latches = append(p.Latches, l)
	}
	return p
}

// constant appends a one-term constant expression to the arena.
func (lw *lowering) constant(v int64) Expr {
	lw.terms = append(lw.terms, Term{Const: true, Val: v})
	n := len(lw.terms)
	return lw.terms[n-1 : n : n]
}

// expr lowers a concatenation: least significant part first, each part
// shifted past the widths below it with the evaluators' bookkeeping
// (width-bounded parts accumulate, unbounded parts set the shift to 31).
func (lw *lowering) expr(e *ast.Expr) Expr {
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
// its size, so it saturates there to fit the term.
func (lw *lowering) term(p ast.Part, shift int) Term {
	sh := uint(min(shift, 64))
	switch p := p.(type) {
	case *ast.Num:
		return Term{Const: true, Val: p.Masked() << sh}
	case *ast.Bits:
		return Term{Const: true, Val: p.Value() << sh}
	case *ast.Ref:
		t := Term{Slot: lw.info.Slot[p.Name], Shift: uint8(sh)}
		if p.Mode != ast.RefWhole {
			t.Field, t.Mask, t.From = true, uint32(p.SelMask()), uint8(p.From)
		}
		return t
	default:
		panic("lower: unknown part type")
	}
}
