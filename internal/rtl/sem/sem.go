// Package sem performs the semantic analysis the ASIM II compiler ran
// between parsing and code generation:
//
//   - every referenced component must be defined ("Component <x> not
//     found");
//   - duplicate definitions are rejected;
//   - ALUs and selectors (the combinational parts) are sorted into
//     dependency order so each cycle can be evaluated in one pass;
//     memories are not sorted — their output registers give them a
//     one-cycle delay;
//   - circular combinational dependencies are reported with the names
//     involved;
//   - the original's declared-but-not-defined / defined-but-not-
//     declared warnings are produced;
//   - additionally (new static checks, see DESIGN.md) selectors whose
//     select expression can exceed the case count, and memories whose
//     address expression can exceed the cell count, are warned about.
package sem

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/rtl/ast"
	"repro/internal/rtl/numlit"
	"repro/internal/rtl/source"
)

// Info is the result of analyzing a specification.
type Info struct {
	Spec *ast.Spec

	// Comb holds the ALUs and selectors in dependency order: every
	// component appears after all combinational components it reads.
	Comb []ast.Component

	// Mems holds the memories in declaration order.
	Mems []*ast.Memory

	// Order is Comb followed by Mems; Slot indexes into it.
	Order []ast.Component

	// Slot maps a component name to its index in Order. Backends use
	// it to address per-component value vectors.
	Slot map[string]int

	// Traced lists the '*'-marked names in declaration order.
	Traced []string

	// Widths holds each slot's estimated output width (see OutputWidth).
	Widths []int

	// Warnings are non-fatal findings, in a stable order.
	Warnings []string
}

// EstWidth estimates how many bits an expression's value can occupy.
// Unlike ast.Expr.Width (the language's concatenation bookkeeping),
// constants contribute only the bits of their actual value, so "0" is
// one bit rather than unbounded. Whole component references count as
// unbounded; Info.ExprWidth refines them through the referenced
// component's own output width.
func EstWidth(e *ast.Expr) int {
	return (&widthWalk{}).expr(e)
}

// ExprWidth estimates an expression's width, following whole component
// references through to the referenced components.
func (in *Info) ExprWidth(e *ast.Expr) int {
	return in.walk().expr(e)
}

// widthWalk is one width estimate. With in set, a whole reference
// resolves through the referenced component's own output width,
// depth-first: onPath marks the components on the current path, and a
// reference back to one of them (a loop through a memory) counts as
// unbounded. The search follows paths, not components — reconvergent
// fan-out resolves a shared component once per path, and a
// feedback-rich design has exponentially many — so it is budgeted: once
// a walk has resolved budget references, every further whole reference
// counts as unbounded. The budget can only widen an estimate, and it is
// linear in the design, so estimating every output width of a design
// costs time linear in its size.
type widthWalk struct {
	in     *Info
	onPath []bool // by slot
	budget int
}

// widthBudgetPerSlot is a walk's budget per component of the design.
// The bundled machines use at most two per component, the small bit-mix
// fabrics fourteen; every analysis pays for this table, so the budget
// also bounds what a hostile design can cost it.
const widthBudgetPerSlot = 32

func (in *Info) walk() *widthWalk {
	return &widthWalk{in: in, onPath: make([]bool, len(in.Order)), budget: widthBudgetPerSlot * (len(in.Order) + 1)}
}

// expr estimates a concatenation's width: the sum of its parts'. The
// parts after the sum reaches the unbounded width cannot change the
// estimate and are not estimated.
func (w *widthWalk) expr(e *ast.Expr) int {
	width := 0
	for _, p := range e.Parts {
		if width >= ast.WidthUnbounded {
			break
		}
		switch p := p.(type) {
		case *ast.Num:
			width += valueBits(p.Masked())
		case *ast.Bits:
			width += len(p.Digits)
		case *ast.Ref:
			if p.Mode == ast.RefWhole && w.in != nil {
				width += w.ref(p.Name)
			} else {
				width += p.Width()
			}
		default:
			width += p.Width()
		}
	}
	return clampWidth(width)
}

// ref resolves a whole reference: unbounded for an unknown name, for a
// component already on the path, and once the budget is spent.
func (w *widthWalk) ref(name string) int {
	slot, ok := w.in.Slot[name]
	if !ok || w.onPath[slot] || w.budget <= 0 {
		return ast.WidthUnbounded
	}
	w.budget--
	return w.component(slot)
}

// component estimates the output width of the component at slot,
// holding it on the path while its operands resolve.
func (w *widthWalk) component(slot int) int {
	w.onPath[slot] = true
	width := w.output(w.in.Order[slot])
	w.onPath[slot] = false
	return width
}

func clampWidth(w int) int {
	if w > ast.WidthUnbounded {
		return ast.WidthUnbounded
	}
	if w < 1 {
		return 1
	}
	return w
}

func valueBits(v int64) int {
	if v < 0 {
		return ast.WidthUnbounded
	}
	return bits.Len64(uint64(v))
}

// OutputWidth estimates how many bits a component's output can occupy.
// For ALUs with a constant function the estimate is function-aware
// (comparisons are one bit, an add carries one bit past the wider
// operand, and so on); everything else is bounded by operand widths,
// with whole references resolved through the referenced components.
// The netlist exporter and the VCD dumper (through sim.Layout) use it.
// c must be one of the analyzed components.
func (in *Info) OutputWidth(c ast.Component) int {
	return in.Widths[in.Slot[c.CompName()]]
}

// outputWidths estimates every slot's width in one walk: its budget is
// shared, so the whole table costs time linear in the design.
func (in *Info) outputWidths() []int {
	w := in.walk()
	widths := make([]int, len(in.Order))
	for slot := range widths {
		widths[slot] = w.component(slot)
	}
	return widths
}

// output estimates a component's width from its operands'. Like expr it
// stops estimating operands once the result is decided: the search is
// over paths, and every operand skipped is a subtree of paths not taken.
func (w *widthWalk) output(c ast.Component) int {
	const unbounded = ast.WidthUnbounded
	switch c := c.(type) {
	case *ast.ALU:
		fv, isConst := c.Funct.ConstValue()
		if !isConst {
			return unbounded
		}
		// ALU function codes as defined in Appendix A (kept local to
		// avoid an import cycle with the execution packages).
		switch fv {
		case 0, 11, 12, 13: // zero, unused, =, <
			return 1
		case 1: // right
			return w.expr(&c.Right)
		case 2: // left
			return w.expr(&c.Left)
		case 3, 5, 6: // NOT, subtract, shift
			// NOT spans the whole mask; SUB can go negative; SHL can
			// reach the top of the 31-bit range.
			return unbounded
		case 4, 7: // add, multiply
			// One bit past the wider operand, or the operands' sum: a
			// left operand of 30 bits or more decides either.
			l := w.expr(&c.Left)
			if l >= unbounded-1 {
				return unbounded
			}
			r := w.expr(&c.Right)
			if fv == 4 {
				return clampWidth(max(l, r) + 1)
			}
			return clampWidth(l + r)
		case 8: // AND
			if l := w.expr(&c.Left); l > 1 {
				return min(l, w.expr(&c.Right))
			}
			return 1
		case 9, 10: // OR, XOR
			if l := w.expr(&c.Left); l < unbounded {
				return max(l, w.expr(&c.Right))
			}
			return unbounded
		default:
			return 1 // undefined functions yield 0
		}
	case *ast.Selector:
		width := 1
		for i := 0; i < len(c.Cases) && width < unbounded; i++ {
			width = max(width, w.expr(&c.Cases[i]))
		}
		return width
	case *ast.Memory:
		return w.expr(&c.Data)
	default:
		return unbounded
	}
}

// Analyze checks spec and computes evaluation order.
func Analyze(spec *ast.Spec) (*Info, error) {
	in := &Info{Spec: spec, Slot: make(map[string]int)}

	// Reject duplicates and index definitions.
	defined := make(map[string]ast.Component, len(spec.Components))
	for _, c := range spec.Components {
		if prev, dup := defined[c.CompName()]; dup {
			return nil, source.Errorf(spec.File, c.Position(),
				"component <%s> defined twice (first at %s)", c.CompName(), prev.Position())
		}
		defined[c.CompName()] = c
	}

	// Every reference must resolve.
	var refErr error
	spec.Walk(func(c ast.Component, e *ast.Expr) {
		if refErr != nil {
			return
		}
		for _, name := range e.Refs() {
			if _, ok := defined[name]; !ok {
				refErr = source.Errorf(spec.File, e.Pos,
					"component <%s> not found (referenced by <%s>)", name, c.CompName())
				return
			}
		}
	})
	if refErr != nil {
		return nil, refErr
	}

	// Split combinational parts from memories.
	var comb []ast.Component
	for _, c := range spec.Components {
		switch c := c.(type) {
		case *ast.Memory:
			in.Mems = append(in.Mems, c)
		default:
			comb = append(comb, c)
		}
	}

	sorted, err := topoSort(spec, comb)
	if err != nil {
		return nil, err
	}
	in.Comb = sorted

	in.Order = make([]ast.Component, 0, len(spec.Components))
	in.Order = append(in.Order, in.Comb...)
	for _, m := range in.Mems {
		in.Order = append(in.Order, m)
	}
	for i, c := range in.Order {
		in.Slot[c.CompName()] = i
	}

	in.checkDeclarations(defined)
	in.checkRanges()
	in.Traced = spec.TracedNames()
	in.Widths = in.outputWidths()
	return in, nil
}

// topoSort orders the combinational components so dependencies come
// first. It is a deterministic Kahn's algorithm (the original used an
// O(n^3) exchange sort); ties break by declaration order.
func topoSort(spec *ast.Spec, comb []ast.Component) ([]ast.Component, error) {
	isComb := make(map[string]int, len(comb)) // name -> index in comb
	for i, c := range comb {
		isComb[c.CompName()] = i
	}

	// deps[i] = set of comb indices component i reads.
	deps := make([][]int, len(comb))
	indegree := make([]int, len(comb))
	dependents := make([][]int, len(comb))
	for i, c := range comb {
		seen := make(map[int]bool)
		for _, e := range c.Operands() {
			for _, name := range e.Refs() {
				j, ok := isComb[name]
				if !ok || seen[j] {
					continue // memory reference or duplicate
				}
				seen[j] = true
				deps[i] = append(deps[i], j)
				dependents[j] = append(dependents[j], i)
				indegree[i]++
			}
		}
	}

	ready := make([]int, 0, len(comb))
	for i := range comb {
		if indegree[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)

	out := make([]ast.Component, 0, len(comb))
	done := 0
	for len(ready) > 0 {
		// Pop the lowest declaration index for determinism.
		i := ready[0]
		ready = ready[1:]
		out = append(out, comb[i])
		done++
		var unlocked []int
		for _, j := range dependents[i] {
			indegree[j]--
			if indegree[j] == 0 {
				unlocked = append(unlocked, j)
			}
		}
		sort.Ints(unlocked)
		ready = mergeSorted(ready, unlocked)
	}
	if done != len(comb) {
		// Report the components stuck in a cycle, in declaration order.
		var names []string
		for i, c := range comb {
			if indegree[i] > 0 {
				names = append(names, c.CompName())
			}
		}
		return nil, source.Errorf(spec.File, comb[0].Position(),
			"circular dependency with %s", quoteList(names))
	}
	return out, nil
}

func mergeSorted(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func quoteList(names []string) string {
	s := ""
	for i, n := range names {
		if i > 0 {
			s += " and/or "
		}
		s += "<" + n + ">"
	}
	return s
}

// checkDeclarations reproduces the original checkdcl warnings.
func (in *Info) checkDeclarations(defined map[string]ast.Component) {
	declared := make(map[string]bool, len(in.Spec.Names))
	for _, n := range in.Spec.Names {
		if declared[n.Name] {
			in.warnf("name <%s> declared more than once", n.Name)
		}
		declared[n.Name] = true
		if _, ok := defined[n.Name]; !ok {
			in.warnf("<%s> declared but not defined", n.Name)
		}
	}
	for _, c := range in.Spec.Components {
		if !declared[c.CompName()] {
			in.warnf("<%s> defined but not declared", c.CompName())
		}
	}
}

// checkRanges adds static out-of-range warnings for selectors and
// memory addresses whose index expressions have a known small width.
func (in *Info) checkRanges() {
	for _, c := range in.Comb {
		s, ok := c.(*ast.Selector)
		if !ok {
			continue
		}
		if v, isConst := s.Select.ConstValue(); isConst {
			if v < 0 || v >= int64(len(s.Cases)) {
				in.warnf("selector <%s> always selects case %d but has only %d values", s.Name, v, len(s.Cases))
			}
			continue
		}
		if w := s.Select.Width(); w < ast.WidthUnbounded {
			if max := numlit.Pow2(w); max > int64(len(s.Cases)) {
				in.warnf("selector <%s> select is %d bits wide (up to %d) but has only %d values", s.Name, w, max-1, len(s.Cases))
			}
		}
	}
	for _, m := range in.Mems {
		if v, isConst := m.Addr.ConstValue(); isConst {
			if v < 0 || v >= int64(m.Size) {
				in.warnf("memory <%s> address is always %d but it has %d cells", m.Name, v, m.Size)
			}
			continue
		}
		if w := m.Addr.Width(); w < ast.WidthUnbounded {
			if max := numlit.Pow2(w); max > int64(m.Size) {
				in.warnf("memory <%s> address is %d bits wide (up to %d) but it has %d cells", m.Name, w, max-1, m.Size)
			}
		}
	}
}

func (in *Info) warnf(format string, args ...interface{}) {
	in.Warnings = append(in.Warnings, fmt.Sprintf(format, args...))
}
