// Package pasgen generates Pascal source for an ASIM II specification
// in the shape of the thesis' own output (Appendix E, Figures
// 4.1-4.3). It exists for fidelity — the reproduction's measured
// artifact is the Go generator — so the emphasis is on matching the
// published code patterns: ljb-prefixed variables, dologic, sinput /
// soutput, the per-memory temp/adr/data/opn quartet, and the
// constant-operation optimizations, printed from the program
// internal/lower produced.
package pasgen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/codegen"
	"repro/internal/lower"
	"repro/internal/rtl/sem"
	"repro/internal/sim"
)

// Generate produces Pascal source for an analyzed specification.
func Generate(info *sem.Info) string {
	g := &generator{info: info, prog: lower.Lower(info, true), vars: codegen.Vars(sim.NewLayout(info))}
	return g.run()
}

type generator struct {
	info *sem.Info
	prog lower.Program
	vars []string // slot -> variable
	b    strings.Builder
}

func (g *generator) p(format string, args ...interface{}) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *generator) run() string {
	g.p("program simulator(input, output);")
	g.p("{#%s}", g.info.Spec.Comment)
	g.emitVars()
	g.p("")
	g.emitLand()
	g.p("")
	g.emitInitValues()
	g.p("")
	g.emitDologic()
	g.p("")
	g.emitIO()
	g.p("")
	g.emitMain()
	return g.b.String()
}

func (g *generator) emitVars() {
	var names []string
	for _, c := range g.info.Comb {
		names = append(names, codegen.Comb(c.CompName()))
	}
	for _, m := range g.info.Mems {
		names = append(names,
			codegen.Temp(m.Name), codegen.Adr(m.Name), codegen.Data(m.Name), codegen.Opn(m.Name))
	}
	g.p("var %s: integer;", strings.Join(names, ", "))
	g.p("    cycles, cyclecount: integer;")
	for _, m := range g.info.Mems {
		g.p("    %s: array[0..%d] of integer;", codegen.Comb(m.Name), m.Size-1)
	}
}

func (g *generator) emitLand() {
	g.p("function land(a, b: integer): integer;")
	g.p("type bitnos = 0..31;")
	g.p("     bigset = set of bitnos;")
	g.p("var intset: record case boolean of")
	g.p("      false: (i, j: integer);")
	g.p("      true: (x, y: bigset)")
	g.p("    end;")
	g.p("begin")
	g.p("  with intset do begin")
	g.p("    i := a;")
	g.p("    j := b;")
	g.p("    x := x * y;")
	g.p("    land := i")
	g.p("  end")
	g.p("end; {land}")
}

func (g *generator) emitInitValues() {
	g.p("procedure initvalues;")
	g.p("var i: integer;")
	g.p("begin")
	for _, m := range g.info.Mems {
		arr := codegen.Comb(m.Name)
		if m.Init != nil {
			for i, v := range m.Init {
				g.p("  %s[%d] := %d;", arr, i, v)
			}
		} else {
			g.p("  for i := 0 to %d do", m.Size-1)
			g.p("    %s[i] := 0;", arr)
		}
		g.p("  %s := 0;", codegen.Temp(m.Name))
	}
	g.p("end; {initvalues}")
}

func (g *generator) emitDologic() {
	g.p("function dologic(funct, left, right: integer): integer;")
	g.p("const mask = %d;", sim.Mask)
	g.p("var value: integer;")
	g.p("begin")
	g.p("  value := 0;")
	g.p("  case funct of")
	g.p("  0 : value := 0;")
	g.p("  1 : value := right;")
	g.p("  2 : value := left;")
	g.p("  3 : value := mask - left;")
	g.p("  4 : value := left + right;")
	g.p("  5 : value := left - right;")
	g.p("  6 : while (right > 0) and (left <> 0) do begin")
	g.p("        left := land(left + left, mask);")
	g.p("        value := left;")
	g.p("        right := right - 1;")
	g.p("      end;")
	g.p("  7 : value := left * right;")
	g.p("  8 : value := land(left, right);")
	g.p("  9 : value := left + right - land(left, right);")
	g.p("  10: value := left + right - land(left, right) * 2;")
	g.p("  11: value := 0;")
	g.p("  12: if left = right then value := 1;")
	g.p("  13: if left < right then value := 1")
	g.p("  end; {case}")
	g.p("  dologic := value;")
	g.p("end; {dologic}")
}

func (g *generator) emitIO() {
	g.p("function sinput(address: integer): integer;")
	g.p("var datum: char;")
	g.p("    data: integer;")
	g.p("begin")
	g.p("  if address = 0 then begin")
	g.p("    read(input, datum);")
	g.p("    sinput := ord(datum)")
	g.p("  end")
	g.p("  else if address = 1 then begin")
	g.p("    read(input, data);")
	g.p("    sinput := data")
	g.p("  end")
	g.p("  else begin")
	g.p("    write(output, 'Input from address ', address:1, ': ');")
	g.p("    readln(input, data);")
	g.p("    sinput := data;")
	g.p("  end")
	g.p("end; {sinput}")
	g.p("")
	g.p("procedure soutput(address, data: integer);")
	g.p("begin")
	g.p("  if address = 0 then writeln(output, chr(data))")
	g.p("  else if address = 1 then writeln(output, data)")
	g.p("  else writeln(output, 'Output to address ', address:1, ': ', data:1)")
	g.p("end; {soutput}")
}

func (g *generator) emitMain() {
	g.p("begin")
	g.p("  initvalues;")
	if g.info.Spec.HasCycles {
		g.p("  cycles := %d;", g.info.Spec.Cycles)
	} else {
		g.p("  cycles := 0;")
	}
	g.p("  if cycles = 0 then begin")
	g.p("    writeln('Number of cycles to trace');")
	g.p("    read(cycles);")
	g.p("  end;")
	g.p("  cyclecount := 0;")
	g.p("  while cyclecount < cycles do begin")

	for i := range g.prog.Ops {
		g.emitOp(&g.prog.Ops[i])
	}

	// Pascal variables start undefined, so every latch is stored.
	for i := range g.prog.Latches {
		l, name := &g.prog.Latches[i], g.info.Mems[i].Name
		g.p("  %s := %s;", codegen.Adr(name), codegen.Expr(l.Addr, g.term))
		g.p("  %s := %s;", codegen.Data(name), codegen.Expr(l.Data, g.term))
		g.p("  %s := %s;", codegen.Opn(name), codegen.Expr(l.Opn, g.term))
	}

	if len(g.info.Traced) > 0 {
		g.p("  write('Cycle ', cyclecount:3);")
		for _, name := range g.info.Traced {
			if slot, ok := g.info.Slot[name]; ok {
				g.p("  write(' %s= ', %s:1);", name, g.vars[slot])
			}
		}
		g.p("  writeln;")
	}

	for i := range g.prog.Latches {
		g.emitMemoryCommit(i)
	}

	g.p("  cyclecount := cyclecount + 1;")
	g.p("  end; {while}")
	g.p("end.")
}

// emitOp prints one lowered op: a folded ALU (or collapsed selector) as
// the specific operation, an unfolded one through dologic, a selector as
// Figure 4.2's case statement.
func (g *generator) emitOp(o *lower.Op) {
	out := g.vars[o.Out]
	if o.Sel {
		g.p("  case %s of", codegen.Expr(o.Ctl, g.term))
		for i, e := range o.Cases {
			sep := ";"
			if i == len(o.Cases)-1 {
				sep = ""
			}
			g.p("  %d : %s := %s%s", i, out, codegen.Expr(e, g.term), sep)
		}
		g.p("  end;")
		return
	}
	left, right := codegen.Expr(o.Left, g.term), codegen.Expr(o.Right, g.term)
	if !o.Folded {
		g.p("  %s := dologic(%s, %s, %s);", out, codegen.Expr(o.Ctl, g.term), left, right)
		return
	}
	switch o.Fn {
	case sim.FnZero, sim.FnUnused:
		g.p("  %s := 0;", out)
	case sim.FnRight:
		g.p("  %s := %s;", out, right)
	case sim.FnLeft:
		g.p("  %s := %s;", out, left)
	case sim.FnNot:
		g.p("  %s := %d - %s;", out, sim.Mask, codegen.ParenOperand(left))
	case sim.FnAdd:
		g.p("  %s := %s + %s;", out, left, right)
	case sim.FnSub:
		g.p("  %s := %s - %s;", out, left, codegen.ParenOperand(right))
	case sim.FnShl:
		g.p("  %s := dologic(6, %s, %s);", out, left, right)
	case sim.FnMul:
		g.p("  %s := %s * %s;", out, codegen.ParenOperand(left), codegen.ParenOperand(right))
	case sim.FnAnd:
		g.p("  %s := land(%s, %s);", out, left, right)
	case sim.FnOr:
		g.p("  %s := %s + %s - land(%s, %s);", out, left, right, left, right)
	case sim.FnXor:
		g.p("  %s := %s + %s - land(%s, %s) * 2;", out, left, right, left, right)
	case sim.FnEq:
		g.p("  if %s = %s then %s := 1", left, right, out)
		g.p("  else %s := 0;", out)
	case sim.FnLt:
		g.p("  if %s < %s then %s := 1", left, right, out)
		g.p("  else %s := 0;", out)
	default:
		g.p("  %s := 0; {function %d undefined}", out, o.Fn)
	}
}

func (g *generator) emitMemoryCommit(i int) {
	m := g.info.Mems[i]
	arr := codegen.Comb(m.Name)
	temp := codegen.Temp(m.Name)
	adr := codegen.Adr(m.Name)
	data := codegen.Data(m.Name)
	opn := codegen.Opn(m.Name)
	c := codegen.ClassifyMemOp(&g.prog.Latches[i], m.Opn.Width())

	if c.Const {
		switch c.Op {
		case sim.OpRead:
			g.p("  %s := %s[%s];", temp, arr, adr)
		case sim.OpWrite:
			g.p("  %s := %s;", temp, data)
			g.p("  %s[%s] := %s;", arr, adr, data)
		case sim.OpInput:
			g.p("  %s := sinput(%s);", temp, adr)
		case sim.OpOutput:
			g.p("  %s := %s;", temp, data)
			g.p("  soutput(%s, %s);", adr, data)
		}
	} else {
		g.p("  case land(%s, 3) of", opn)
		g.p("  0: %s := %s[%s];", temp, arr, adr)
		g.p("  1: begin")
		g.p("       %s := %s;", temp, data)
		g.p("       %s[%s] := %s", arr, adr, data)
		g.p("     end;")
		g.p("  2: %s := sinput(%s);", temp, adr)
		g.p("  3: begin")
		g.p("       %s := %s;", temp, data)
		g.p("       soutput(%s, %s);", adr, data)
		g.p("     end")
		g.p("  end; {case}")
	}

	if c.TraceWrites {
		g.p("  writeln(' Write to %s at ', %s:1, ': ', %s:1);", m.Name, adr, temp)
	} else if c.MayTraceWrites {
		g.p("  if land(%s, 5) = 5 then", opn)
		g.p("    writeln(' Write to %s at ', %s:1, ': ', %s:1);", m.Name, adr, temp)
	}
	if c.TraceReads {
		g.p("  writeln(' Read from %s at ', %s:1, ': ', %s:1);", m.Name, adr, temp)
	} else if c.MayTraceReads {
		g.p("  if land(%s, 9) = 8 then", opn)
		g.p("    writeln(' Read from %s at ', %s:1, ': ', %s:1);", m.Name, adr, temp)
	}
}

// term is the one printer of a lowered term as Pascal: land masks and
// div/mul shifts, exactly as the original expr procedure generated.
func (g *generator) term(t lower.Term) string {
	if t.Const {
		return strconv.FormatInt(t.Val, 10)
	}
	s := g.vars[t.Slot]
	if t.Field {
		s = fmt.Sprintf("land(%s, %d)", s, t.Mask)
		if t.From > 0 {
			s = fmt.Sprintf("%s div %d", s, int64(1)<<t.From)
		}
	}
	if t.Shift > 0 {
		s = fmt.Sprintf("%s * %d", s, int64(1)<<t.Shift)
	}
	return s
}
