// Package interp is the ASIM-style baseline backend: it evaluates the
// parsed specification tables directly, walking each expression's AST
// every cycle. This reproduces the role of Pittman's original ASIM
// interpreter, which "reads the specification into tables, and
// produces a simulation run by interpreting the symbols in the table"
// (§3.1) — the baseline ASIM II's compiled code is measured against in
// Figure 5.1.
//
// Two lookup modes are provided:
//
//   - New: component references resolve through a name→slot map (a
//     fair, hash-table interpretation of the tables);
//   - NewNaive: every reference re-scans the component list linearly,
//     as the original Pascal findname did. This mode exists for the
//     ablation benchmarks.
package interp

import (
	"repro/internal/rtl/ast"
	"repro/internal/rtl/sem"
	"repro/internal/sim"
)

// Interp implements sim.Evaluator by AST walking. It is stateless
// after construction — every field is an immutable view of the
// analyzed tables — so one Interp may be shared by any number of
// machines and goroutines (the sim.Evaluator contract).
type Interp struct {
	info  *sem.Info
	comb  []ast.Component
	mems  []*ast.Memory
	slots map[string]int
	naive bool
	order []string // component names in Order sequence, for naive lookup
}

// New builds the table-driven interpreter with hashed name lookup.
func New(info *sem.Info) *Interp { return build(info, false) }

// NewNaive builds the interpreter with linear name lookup per
// reference, mimicking ASIM's findname.
func NewNaive(info *sem.Info) *Interp { return build(info, true) }

func build(info *sem.Info, naive bool) *Interp {
	it := &Interp{
		info:  info,
		comb:  info.Comb,
		mems:  info.Mems,
		slots: info.Slot,
		naive: naive,
	}
	for _, c := range info.Order {
		it.order = append(it.order, c.CompName())
	}
	return it
}

// BackendName implements sim.Evaluator.
func (it *Interp) BackendName() string {
	if it.naive {
		return "interp-naive"
	}
	return "interp"
}

func (it *Interp) slot(name string) int {
	if it.naive {
		for i, n := range it.order {
			if n == name {
				return i
			}
		}
		return -1
	}
	if s, ok := it.slots[name]; ok {
		return s
	}
	return -1
}

// Eval evaluates one expression against the value vector. It is
// exported for tools that need ad-hoc expression evaluation against a
// machine snapshot (the REPL-style inspector in cmd/asim uses it).
func (it *Interp) Eval(e *ast.Expr, vals []int64) int64 {
	var total int64
	shift := 0
	for i := len(e.Parts) - 1; i >= 0; i-- {
		switch p := e.Parts[i].(type) {
		case *ast.Num:
			total += p.Masked() << uint(shift)
		case *ast.Bits:
			total += p.Value() << uint(shift)
		case *ast.Ref:
			v := vals[it.slot(p.Name)]
			total += sim.ExtractRef(v, p) << uint(shift)
		}
		if w := e.Parts[i].Width(); w == ast.WidthUnbounded {
			shift = ast.WidthUnbounded
		} else {
			shift += w
		}
	}
	return total
}

// StepCycle implements sim.Evaluator.
func (it *Interp) StepCycle(vals []int64, addr, data, opn []int64, cycle int64) {
	for _, c := range it.comb {
		switch c := c.(type) {
		case *ast.ALU:
			funct := it.Eval(&c.Funct, vals)
			left := it.Eval(&c.Left, vals)
			right := it.Eval(&c.Right, vals)
			vals[it.slot(c.Name)] = sim.DoLogic(funct, left, right)
		case *ast.Selector:
			idx := it.Eval(&c.Select, vals)
			if idx < 0 || idx >= int64(len(c.Cases)) {
				sim.Fail(c.Name, cycle, "selector index %d outside 0..%d", idx, len(c.Cases)-1)
			}
			vals[it.slot(c.Name)] = it.Eval(&c.Cases[idx], vals)
		}
	}
	for i, m := range it.mems {
		addr[i] = it.Eval(&m.Addr, vals)
		data[i] = it.Eval(&m.Data, vals)
		opn[i] = it.Eval(&m.Opn, vals)
	}
}
