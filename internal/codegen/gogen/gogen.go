// Package gogen generates a self-contained Go program simulating an
// ASIM II specification — the reproduction's counterpart of the
// thesis' Pascal output (Appendix E). The generated program depends
// only on the standard library and is compiled with the ordinary Go
// toolchain, exactly as the original piped its output through the
// Pascal compiler. The generator prints the program internal/lower
// produced, so all of §4.4's optimizations are applied exactly as the
// in-process kernels apply them: constant-function ALUs become inline
// operations (Figure 4.1), constant selectors collapse, and constant
// memory operations drop the dispatch switch (Figure 4.3). Worker
// prints the same lowering as the native protocol worker a compiled
// program runs in (worker.go).
package gogen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/codegen"
	"repro/internal/lower"
	"repro/internal/rtl/sem"
	"repro/internal/sim"
)

// Options controls generation.
type Options struct {
	// Cycles overrides the spec's "=" cycle count. When both are
	// absent the generated program reads the count from stdin, as the
	// original did.
	Cycles int64

	// NoTrace suppresses the per-cycle trace line and read/write
	// traces even for '*'-marked signals (used for pure-speed
	// benchmark builds).
	NoTrace bool
}

// Generate produces the Go source of a standalone program for an
// analyzed specification. The analysis supplies what only a standalone
// program prints: the spec's comment, its default cycle count, the
// traced names and the operation widths that decide read/write traces.
func Generate(info *sem.Info, opts Options) string {
	prog, lay := lower.Lower(info, true), sim.NewLayout(info)
	g := &generator{info: info, opts: opts, lay: lay, prog: &prog, vars: codegen.Vars(lay)}
	for _, m := range lay.Mems {
		g.mems = append(g.mems, memVars{codegen.Adr(m.Name), codegen.Data(m.Name), codegen.Opn(m.Name), codegen.Comb(m.Name) + "[%s]"})
	}
	return g.run()
}

// generator prints a lowered program over its layout. info is set for
// a standalone program only: a worker (worker.go) never sees the
// analysis, and info == nil is what selects the worker's forms.
type generator struct {
	info *sem.Info
	opts Options
	lay  *sim.Layout
	prog *lower.Program
	vars []string  // slot -> variable
	mems []memVars // memory ordinal -> its latches and cells
	b    strings.Builder
	ind  int
}

// memVars names where a printed program keeps one memory's latched
// inputs and its cells; cell is a format of the cell index.
type memVars struct{ adr, data, opn, cell string }

// combVars returns the combinational outputs' variables, which lead
// the slot order.
func (g *generator) combVars() []string { return g.vars[:len(g.vars)-len(g.lay.Mems)] }

func (g *generator) p(format string, args ...interface{}) {
	g.b.WriteString(strings.Repeat("\t", g.ind))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *generator) run() string {
	spec := g.info.Spec
	g.p("// Code generated by asimc (ASIM II reproduction). DO NOT EDIT.")
	g.p("//")
	g.p("//%s", stripNewlines(spec.Comment))
	g.p("package main")
	g.p("")
	g.emitImports()
	g.p("")
	g.p("const mask = %d", sim.Mask)
	g.p("")
	g.p("func land(a, b int64) int64 { return int64(int32(uint32(a) & uint32(b))) }")
	g.p("")
	g.emitDologic()
	g.p("")
	g.emitVars()
	g.p("")
	g.emitInitValues()
	g.p("")
	g.emitIO()
	g.p("")
	g.emitMain()
	return g.b.String()
}

func (g *generator) needsInput() bool {
	for i := range g.prog.Latches {
		if v, ok := g.prog.Latches[i].Opn.Constant(); !ok || v&3 == sim.OpInput {
			return true
		}
	}
	return false
}

// needsDologic reports whether some ALU is unfolded or folded to the
// shift, which keeps dologic's loop.
func (g *generator) needsDologic() bool {
	for i := range g.prog.Ops {
		if o := &g.prog.Ops[i]; !o.Sel && (!o.Folded || o.Fn == sim.FnShl) {
			return true
		}
	}
	return false
}

func (g *generator) emitImports() {
	g.p("import (")
	g.ind++
	if g.needsInput() {
		g.p("\"bufio\"")
	}
	g.p("\"fmt\"")
	g.p("\"os\"")
	g.ind--
	g.p(")")
	g.p("")
	g.p("var _ = os.Stdout // always referenced")
}

func (g *generator) emitDologic() {
	if !g.needsDologic() {
		g.p("// dologic elided: every ALU function folded to inline code.")
		return
	}
	g.p("func dologic(funct, left, right int64) int64 {")
	g.ind++
	g.p("var value int64")
	g.p("switch funct {")
	g.p("case 1:")
	g.p("\tvalue = right")
	g.p("case 2:")
	g.p("\tvalue = left")
	g.p("case 3:")
	g.p("\tvalue = mask - left")
	g.p("case 4:")
	g.p("\tvalue = left + right")
	g.p("case 5:")
	g.p("\tvalue = left - right")
	g.p("case 6:")
	g.p("\tfor right > 0 && left != 0 {")
	g.p("\t\tleft = land(left+left, mask)")
	g.p("\t\tvalue = left")
	g.p("\t\tright--")
	g.p("\t}")
	g.p("case 7:")
	g.p("\tvalue = left * right")
	g.p("case 8:")
	g.p("\tvalue = land(left, right)")
	g.p("case 9:")
	g.p("\tvalue = left + right - land(left, right)")
	g.p("case 10:")
	g.p("\tvalue = left + right - land(left, right)*2")
	g.p("case 12:")
	g.p("\tif left == right {")
	g.p("\t\tvalue = 1")
	g.p("\t}")
	g.p("case 13:")
	g.p("\tif left < right {")
	g.p("\t\tvalue = 1")
	g.p("\t}")
	g.p("}")
	g.p("return value")
	g.ind--
	g.p("}")
}

func (g *generator) emitVars() {
	g.p("var (")
	g.ind++
	for _, v := range g.combVars() {
		g.p("%s int64", v)
	}
	for _, m := range g.lay.Mems {
		g.p("%s, %s, %s, %s int64", codegen.Temp(m.Name), codegen.Adr(m.Name), codegen.Data(m.Name), codegen.Opn(m.Name))
		g.p("%s [%d]int64", codegen.Comb(m.Name), m.Size)
	}
	g.ind--
	g.p(")")
}

func (g *generator) emitInitValues() {
	g.p("func initvalues() {")
	g.ind++
	any := false
	for _, m := range g.lay.Mems {
		for i, v := range m.Init {
			if v != 0 {
				g.p("%s[%d] = %d", codegen.Comb(m.Name), i, v)
				any = true
			}
		}
	}
	if !any {
		g.p("// all memories start zeroed")
	}
	g.ind--
	g.p("}")
}

func (g *generator) emitIO() {
	if g.needsInput() {
		g.p("var stdin = bufio.NewReader(os.Stdin)")
		g.p("")
		g.p("func sinput(address int64) int64 {")
		g.ind++
		g.p("if address == 0 {")
		g.p("\tb, err := stdin.ReadByte()")
		g.p("\tif err != nil {")
		g.p("\t\tfmt.Fprintln(os.Stderr, \"input:\", err)")
		g.p("\t\tos.Exit(1)")
		g.p("\t}")
		g.p("\treturn int64(b)")
		g.p("}")
		g.p("var v int64")
		g.p("if _, err := fmt.Fscan(stdin, &v); err != nil {")
		g.p("\tfmt.Fprintln(os.Stderr, \"input:\", err)")
		g.p("\tos.Exit(1)")
		g.p("}")
		g.p("return v")
		g.ind--
		g.p("}")
		g.p("")
	}
	g.p("func soutput(address, data int64) {")
	g.ind++
	g.p("switch address {")
	g.p("case 0:")
	g.p("\tfmt.Printf(\"%%c\\n\", rune(data&0x10FFFF))")
	g.p("case 1:")
	g.p("\tfmt.Printf(\"%%d\\n\", data)")
	g.p("default:")
	g.p("\tfmt.Printf(\"Output to address %%d: %%d\\n\", address, data)")
	g.p("}")
	g.ind--
	g.p("}")
}

func (g *generator) emitMain() {
	g.p("func main() {")
	g.ind++
	g.p("initvalues()")
	cycles := g.opts.Cycles
	if cycles == 0 && g.info.Spec.HasCycles {
		cycles = g.info.Spec.Cycles
	}
	if cycles > 0 {
		g.p("cycles := int64(%d)", cycles)
	} else {
		g.p("var cycles int64")
		g.p("fmt.Println(\"Number of cycles to trace\")")
		g.p("if _, err := fmt.Scan(&cycles); err != nil {")
		g.p("\tfmt.Fprintln(os.Stderr, \"cycles:\", err)")
		g.p("\tos.Exit(1)")
		g.p("}")
	}
	g.p("for cyclecount := int64(0); cyclecount < cycles; cyclecount++ {")
	g.ind++
	g.emitEval()

	if !g.opts.NoTrace && len(g.info.Traced) > 0 {
		g.p("// per-cycle trace")
		g.p("fmt.Printf(\"Cycle %%3d\", cyclecount)")
		for _, name := range g.info.Traced {
			if slot, ok := g.info.Slot[name]; ok { // else declared but not defined
				g.p("fmt.Printf(\" %s= %%d\", %s)", name, g.vars[slot])
			}
		}
		g.p("fmt.Println()")
	}

	g.p("// commit memory operations")
	for i := range g.prog.Latches {
		g.emitMemoryCommit(i)
	}

	g.ind--
	g.p("}")
	g.ind--
	g.p("}")
}

// emitEval prints one cycle's evaluation, the same in both modes:
// combinational ops in dependency order, then the memory latches. A
// worker stores every latch every cycle, so its snapshots hold what a
// Machine's hold; the stand-alone program never snapshots and keeps
// §5.4's elision of a dead (constant 0) data latch and of a constant
// operation latch, which its specialized commit never reads.
func (g *generator) emitEval() {
	g.p("// combinational components, dependency order")
	for i := range g.prog.Ops {
		g.emitOp(&g.prog.Ops[i])
	}
	g.p("// latch memory inputs")
	for i := range g.prog.Latches {
		l, mv := &g.prog.Latches[i], g.mems[i]
		g.p("%s = %s", mv.adr, codegen.Expr(l.Addr, g.term))
		if v, ok := l.Data.Constant(); g.info == nil || !ok || v != 0 {
			g.p("%s = %s", mv.data, codegen.Expr(l.Data, g.term))
		}
		if _, ok := l.Opn.Constant(); g.info == nil || !ok {
			g.p("%s = %s", mv.opn, codegen.Expr(l.Opn, g.term))
		}
	}
}

// emitOp prints one lowered op. A folded ALU is the specific operation
// (Figure 4.1) — a collapsed selector is one folded to "left" — an
// unfolded one calls dologic, and a selector is Figure 4.2's case
// dispatch, whose default faults the way the mode reports faults.
func (g *generator) emitOp(o *lower.Op) {
	out := g.vars[o.Out]
	if o.Sel {
		sel := codegen.Expr(o.Ctl, g.term)
		g.p("switch %s {", sel)
		for i, e := range o.Cases {
			g.p("case %d:", i)
			g.p("\t%s = %s", out, codegen.Expr(e, g.term))
		}
		g.p("default:")
		if g.info == nil {
			g.p("\tfail(%q, \"selector index %%d outside 0..%%d\", %s, int64(%d))", o.Name, sel, len(o.Cases)-1)
			g.p("\treturn false")
		} else {
			g.p("\tfmt.Fprintf(os.Stderr, \"cycle %%d: selector %s out of range\\n\", cyclecount)", o.Name)
			g.p("\tos.Exit(1)")
		}
		g.p("}")
		return
	}
	left, right := codegen.Expr(o.Left, g.term), codegen.Expr(o.Right, g.term)
	if !o.Folded {
		g.p("%s = dologic(%s, %s, %s)", out, codegen.Expr(o.Ctl, g.term), left, right)
		return
	}
	switch o.Fn {
	case sim.FnZero, sim.FnUnused:
		g.p("%s = 0", out)
	case sim.FnRight:
		g.p("%s = %s", out, right)
	case sim.FnLeft:
		g.p("%s = %s", out, left)
	case sim.FnNot:
		g.p("%s = mask - %s", out, codegen.ParenOperand(left))
	case sim.FnAdd:
		g.p("%s = %s + %s", out, left, right)
	case sim.FnSub:
		g.p("%s = %s - %s", out, left, codegen.ParenOperand(right))
	case sim.FnShl:
		g.p("%s = dologic(6, %s, %s)", out, left, right)
	case sim.FnMul:
		g.p("%s = %s * %s", out, codegen.ParenOperand(left), codegen.ParenOperand(right))
	case sim.FnAnd:
		g.p("%s = land(%s, %s)", out, left, right)
	case sim.FnOr:
		g.p("{ var l, r int64 = %s, %s; %s = l + r - land(l, r) }", left, right, out)
	case sim.FnXor:
		g.p("{ var l, r int64 = %s, %s; %s = l + r - land(l, r)*2 }", left, right, out)
	case sim.FnEq:
		g.p("if %s == %s {", left, right)
		g.p("\t%s = 1", out)
		g.p("} else {")
		g.p("\t%s = 0", out)
		g.p("}")
	case sim.FnLt:
		g.p("if %s < %s {", left, right)
		g.p("\t%s = 1", out)
		g.p("} else {")
		g.p("\t%s = 0", out)
		g.p("}")
	default:
		g.p("%s = 0 // function %d undefined", out, o.Fn)
	}
}

// emitDispatch mirrors Figure 4.3's commit: a constant operation prints
// its one case, a dynamic one switches on the operation's low two bits.
// cases are indexed by sim.OpRead..sim.OpOutput.
func (g *generator) emitDispatch(c codegen.MemOpCase, opn string, cases [4]func(pfx string)) {
	if c.Const {
		cases[c.Op]("")
		return
	}
	g.p("switch %s & 3 {", opn)
	for op, emit := range cases {
		g.p("case %d:", op)
		emit("\t")
	}
	g.p("}")
}

// emitMemoryCommit is the stand-alone commit: the operation through
// sinput/soutput, then the trace statements the operation can request.
func (g *generator) emitMemoryCommit(i int) {
	m, mv := g.info.Mems[i], g.mems[i]
	temp, adr, data, opn := g.vars[g.lay.Mems[i].Slot], mv.adr, mv.data, mv.opn
	cell := fmt.Sprintf(mv.cell, adr)
	c := codegen.ClassifyMemOp(&g.prog.Latches[i], m.Opn.Width())
	g.emitDispatch(c, opn, [4]func(string){
		func(pfx string) { g.p("%s%s = %s", pfx, temp, cell) },
		func(pfx string) {
			g.p("%s%s = %s", pfx, temp, data)
			g.p("%s%s = %s", pfx, cell, data)
		},
		func(pfx string) { g.p("%s%s = sinput(%s)", pfx, temp, adr) },
		func(pfx string) {
			g.p("%s%s = %s", pfx, temp, data)
			g.p("%ssoutput(%s, %s)", pfx, adr, data)
		},
	})
	if g.opts.NoTrace {
		return
	}
	// Write trace: land(op, 5) == 5.
	if c.TraceWrites {
		g.p("fmt.Printf(\" Write to %s at %%d: %%d\\n\", %s, %s)", m.Name, adr, temp)
	} else if c.MayTraceWrites {
		g.p("if land(%s, 5) == 5 {", opn)
		g.p("\tfmt.Printf(\" Write to %s at %%d: %%d\\n\", %s, %s)", m.Name, adr, temp)
		g.p("}")
	}
	// Read trace: land(op, 9) == 8.
	if c.TraceReads {
		g.p("fmt.Printf(\" Read from %s at %%d: %%d\\n\", %s, %s)", m.Name, adr, temp)
	} else if c.MayTraceReads {
		g.p("if land(%s, 9) == 8 {", opn)
		g.p("\tfmt.Printf(\" Read from %s at %%d: %%d\\n\", %s, %s)", m.Name, adr, temp)
		g.p("}")
	}
}

func stripNewlines(s string) string { return strings.ReplaceAll(s, "\n", " ") }

// term is the one printer of a lowered term as Go.
func (g *generator) term(t lower.Term) string {
	if t.Const {
		return strconv.FormatInt(t.Val, 10)
	}
	s := g.vars[t.Slot]
	if t.Field {
		s = fmt.Sprintf("int64((uint32(%s)&%#x)>>%d)", s, t.Mask, t.From)
	}
	if t.Shift > 0 {
		s = fmt.Sprintf("%s<<%d", s, t.Shift)
	}
	return s
}
