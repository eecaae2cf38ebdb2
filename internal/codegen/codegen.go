// Package codegen holds the pieces shared by the Go and Pascal source
// printers: identifier mangling (the original prefixed every signal
// with "ljb", the author's initials — we keep the convention), the
// printing of a lowered expression around each language's one term
// printer, and the commit-time view of a lowered memory latch. The
// printers decide nothing of §4.4 themselves: they print the program
// internal/lower produced.
package codegen

import (
	"strconv"
	"strings"

	"repro/internal/lower"
	"repro/internal/sim"
)

// Comb returns the generated-code name of a combinational signal or of
// a memory's backing array.
func Comb(name string) string { return "ljb" + name }

// Temp returns the name of a memory's output register.
func Temp(name string) string { return "temp" + name }

// Adr, Data, Opn name a memory's per-cycle latched inputs, matching
// the original's adrX/dataX/opnX variables.
func Adr(name string) string  { return "adr" + name }
func Data(name string) string { return "data" + name }
func Opn(name string) string  { return "opn" + name }

// Vars returns the variable holding each value slot, in slot order:
// combinational outputs by their ljb name, memories by their output
// register (which, like the original, is what a reference reads).
func Vars(lay *sim.Layout) []string {
	vars := make([]string, len(lay.Names))
	comb := len(lay.Names) - len(lay.Mems)
	for i, name := range lay.Names {
		if i < comb {
			vars[i] = Comb(name)
		} else {
			vars[i] = Temp(name)
		}
	}
	return vars
}

// Expr prints a lowered expression: a constant as its value, anything
// else as its terms, most significant first, joined by '+', with
// constant-zero terms elided. term is the language's term printer.
func Expr(e lower.Expr, term func(lower.Term) string) string {
	if v, ok := e.Constant(); ok {
		return strconv.FormatInt(v, 10)
	}
	var b strings.Builder
	for i := len(e) - 1; i >= 0; i-- {
		if e[i].Const && e[i].Val == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" + ")
		}
		b.WriteString(term(e[i]))
	}
	return b.String()
}

// ParenOperand wraps a printed expression for embedding in a context
// that binds tighter than the '+' joining its concatenation terms —
// subtraction's right side, multiplication, complement. Without it
// "mask - a<<5 + 28" parses as "(mask - a<<5) + 28"; Go puts '*' and
// '<<' on one precedence level and Pascal puts '*' and 'div' on one, so
// "a * b<<5" and "a * land(x, m) div 4" would bind the product first.
// Identifiers and literals stay bare.
func ParenOperand(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') {
			return "(" + s + ")"
		}
	}
	return s
}

// MemOpCase describes what a memory's commit code must handle.
type MemOpCase struct {
	// Const is set when the lowered operation is constant; Op is then
	// its low two bits and the trace flags are statically known.
	Const       bool
	Op          int64
	TraceWrites bool
	TraceReads  bool

	// MayTraceWrites / MayTraceReads: for dynamic operations, whether
	// the expression is wide enough to ever set the trace bits (the
	// original's numberofbits >= 3 / >= 4 tests).
	MayTraceWrites bool
	MayTraceReads  bool
}

// ClassifyMemOp reads a lowered latch's operation. Trace feasibility is
// a tracing fact, not a §4.4 one, so the caller supplies the operation
// expression's declared width.
func ClassifyMemOp(l *lower.Latch, opnWidth int) MemOpCase {
	if v, ok := l.Opn.Constant(); ok {
		return MemOpCase{Const: true, Op: v & 3, TraceWrites: sim.TraceWrite(v), TraceReads: sim.TraceRead(v)}
	}
	return MemOpCase{MayTraceWrites: opnWidth >= 3, MayTraceReads: opnWidth >= 4}
}
