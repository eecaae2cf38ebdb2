package sem

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/machines"
	"repro/internal/rtl/ast"
	"repro/internal/rtl/parser"
	"repro/internal/specgen"
)

func analyze(t *testing.T, src string) (*Info, error) {
	t.Helper()
	spec, err := parser.ParseString("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Analyze(spec)
}

func mustAnalyze(t *testing.T, src string) *Info {
	t.Helper()
	in, err := analyze(t, src)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return in
}

// chainSpec has combinational parts declared in reverse dependency
// order: c reads b reads a; the sorter must produce a, b, c.
const chainSpec = `#chain
a b c m .
A c 4 b 1
A b 4 a 1
A a 2 m 0
M m 0 c 1 1
.
`

func order(in *Info) []string {
	var names []string
	for _, c := range in.Comb {
		names = append(names, c.CompName())
	}
	return names
}

func TestTopoSortChain(t *testing.T) {
	in := mustAnalyze(t, chainSpec)
	got := order(in)
	want := []string{"a", "b", "c"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestMemoryBreaksCycle(t *testing.T) {
	// a reads m, m's data reads a: legal because the memory's output
	// register delays the loop by one cycle.
	in := mustAnalyze(t, "#c\na m .\nA a 4 m 1\nM m 0 a 1 1\n.")
	if len(in.Comb) != 1 || len(in.Mems) != 1 {
		t.Fatalf("comb=%d mems=%d", len(in.Comb), len(in.Mems))
	}
}

func TestCircularDependency(t *testing.T) {
	_, err := analyze(t, "#c\na b .\nA a 4 b 1\nA b 4 a 1\n.")
	if err == nil {
		t.Fatal("want circular dependency error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "circular dependency") ||
		!strings.Contains(msg, "<a>") || !strings.Contains(msg, "<b>") {
		t.Errorf("err = %v", err)
	}
}

func TestSelfLoopIsCircular(t *testing.T) {
	_, err := analyze(t, "#c\na .\nA a 4 a 1\n.")
	if err == nil || !strings.Contains(err.Error(), "circular") {
		t.Errorf("err = %v, want circular", err)
	}
}

func TestUndefinedReference(t *testing.T) {
	_, err := analyze(t, "#c\na .\nA a 4 ghost 1\n.")
	if err == nil || !strings.Contains(err.Error(), "component <ghost> not found") {
		t.Errorf("err = %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "<a>") {
		t.Errorf("err should name the referencing component: %v", err)
	}
}

func TestDuplicateDefinition(t *testing.T) {
	_, err := analyze(t, "#c\na .\nA a 1 0 0\nA a 2 0 0\n.")
	if err == nil || !strings.Contains(err.Error(), "defined twice") {
		t.Errorf("err = %v", err)
	}
}

func TestDeclarationWarnings(t *testing.T) {
	in := mustAnalyze(t, "#c\na ghost .\nA a 1 0 0\nA hidden 1 0 0\n.")
	joined := strings.Join(in.Warnings, "\n")
	if !strings.Contains(joined, "<ghost> declared but not defined") {
		t.Errorf("missing declared-not-defined warning: %q", joined)
	}
	if !strings.Contains(joined, "<hidden> defined but not declared") {
		t.Errorf("missing defined-not-declared warning: %q", joined)
	}
}

func TestDuplicateDeclarationWarning(t *testing.T) {
	in := mustAnalyze(t, "#c\na a .\nA a 1 0 0\n.")
	if !strings.Contains(strings.Join(in.Warnings, "\n"), "declared more than once") {
		t.Errorf("warnings = %v", in.Warnings)
	}
}

func TestSelectorRangeWarning(t *testing.T) {
	// select is 2 bits wide (values up to 3) but only 3 cases exist.
	in := mustAnalyze(t, "#c\ns m .\nS s m.0.1 1 2 3\nM m 0 0 1 1\n.")
	if !strings.Contains(strings.Join(in.Warnings, "\n"), "selector <s>") {
		t.Errorf("warnings = %v", in.Warnings)
	}
	// 2 bits with 4 cases: fine.
	in = mustAnalyze(t, "#c\ns m .\nS s m.0.1 1 2 3 4\nM m 0 0 1 1\n.")
	for _, w := range in.Warnings {
		if strings.Contains(w, "selector <s>") {
			t.Errorf("unexpected warning %q", w)
		}
	}
}

func TestConstSelectorWarning(t *testing.T) {
	in := mustAnalyze(t, "#c\ns .\nS s 5 1 2 3\n.")
	if !strings.Contains(strings.Join(in.Warnings, "\n"), "always selects case 5") {
		t.Errorf("warnings = %v", in.Warnings)
	}
}

func TestMemoryAddrWarning(t *testing.T) {
	// 4-bit address (up to 15) into a 10-cell memory.
	in := mustAnalyze(t, "#c\nm x .\nM m x.0.3 0 1 10\nA x 1 0 0\n.")
	if !strings.Contains(strings.Join(in.Warnings, "\n"), "memory <m>") {
		t.Errorf("warnings = %v", in.Warnings)
	}
	in = mustAnalyze(t, "#c\nm x .\nM m x.0.3 0 1 16\nA x 1 0 0\n.")
	for _, w := range in.Warnings {
		if strings.Contains(w, "memory <m>") {
			t.Errorf("unexpected warning %q", w)
		}
	}
}

func TestConstMemoryAddrWarning(t *testing.T) {
	in := mustAnalyze(t, "#c\nm .\nM m 12 0 1 4\n.")
	if !strings.Contains(strings.Join(in.Warnings, "\n"), "address is always 12") {
		t.Errorf("warnings = %v", in.Warnings)
	}
}

func TestSlots(t *testing.T) {
	in := mustAnalyze(t, chainSpec)
	if len(in.Order) != 4 {
		t.Fatalf("order size = %d", len(in.Order))
	}
	seen := map[int]bool{}
	for name, slot := range in.Slot {
		if seen[slot] {
			t.Errorf("slot %d assigned twice", slot)
		}
		seen[slot] = true
		if in.Order[slot].CompName() != name {
			t.Errorf("slot %d: order says %s, map says %s", slot, in.Order[slot].CompName(), name)
		}
	}
	// Memories come after all combinational components.
	if in.Order[len(in.Order)-1].CompKind() != ast.KindMemory {
		t.Error("memory should be last in Order")
	}
}

func TestTraced(t *testing.T) {
	in := mustAnalyze(t, "#c\na* m .\nA a 1 m 0\nM m 0 a 1 1\n.")
	if len(in.Traced) != 1 || in.Traced[0] != "a" {
		t.Errorf("Traced = %v", in.Traced)
	}
}

func TestOutputWidth(t *testing.T) {
	in := mustAnalyze(t, `#c
alu sel m .
A alu 4 m.0.3 m.0.3
S sel m.0 #01 #111
M m 0 alu.0.7 1 1
.
`)
	spec := in.Spec
	if w := in.OutputWidth(spec.Component("alu")); w != 5 {
		t.Errorf("alu width = %d, want 5 (4-bit operands + carry)", w)
	}
	if w := in.OutputWidth(spec.Component("sel")); w != 3 {
		t.Errorf("sel width = %d, want 3 (widest case)", w)
	}
	if w := in.OutputWidth(spec.Component("m")); w != 8 {
		t.Errorf("mem width = %d, want 8 (data width)", w)
	}
}

// TestExprWidthResolvesWholeRefs: whole references resolve through the
// referenced component's own estimated width.
func TestExprWidthResolvesWholeRefs(t *testing.T) {
	in := mustAnalyze(t, `#w
flag bit3 sum m .
A flag 12 m 7
A bit3 1 0 m.3
A sum 4 m.0.3 m.0.3
M m 0 flag 1 1
.
`)
	width := func(src string) int {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return in.ExprWidth(e)
	}
	if w := width("flag"); w != 1 {
		t.Errorf("width(flag) = %d, want 1 (eq output)", w)
	}
	if w := width("bit3"); w != 1 {
		t.Errorf("width(bit3) = %d, want 1", w)
	}
	if w := width("sum"); w != 5 {
		t.Errorf("width(sum) = %d, want 5", w)
	}
	// m's data is flag (1 bit) -> the register is 1 bit wide.
	if w := width("m"); w != 1 {
		t.Errorf("width(m) = %d, want 1", w)
	}
	// Concatenation of resolved refs.
	if w := width("flag,sum.0.4"); w != 6 {
		t.Errorf("width(flag,sum.0.4) = %d, want 6", w)
	}
}

// TestExprWidthCycleGuard: mutually referencing register/ALU loops
// terminate with the unbounded width rather than recursing forever.
func TestExprWidthCycleGuard(t *testing.T) {
	in := mustAnalyze(t, "#c\na m .\nA a 4 m 1\nM m 0 a 1 1\n.")
	e, err := parser.ParseExpr("a")
	if err != nil {
		t.Fatal(err)
	}
	if w := in.ExprWidth(e); w < 1 || w > ast.WidthUnbounded {
		t.Errorf("cyclic width = %d", w)
	}
}

// TestSortIsStable checks ties break by declaration order.
func TestSortIsStable(t *testing.T) {
	in := mustAnalyze(t, `#c
z y x m .
A z 1 m 0
A y 1 m 0
A x 1 m 0
M m 0 0 1 1
.
`)
	got := strings.Join(order(in), " ")
	if got != "z y x" {
		t.Errorf("order = %q, want declaration order \"z y x\"", got)
	}
}

// TestDiamondDependency: d reads b and c, both read a.
func TestDiamondDependency(t *testing.T) {
	in := mustAnalyze(t, `#c
d c b a m .
A d 4 b c
A c 4 a 1
A b 4 a 2
A a 2 m 0
M m 0 d 1 1
.
`)
	pos := map[string]int{}
	for i, n := range order(in) {
		pos[n] = i
	}
	if !(pos["a"] < pos["b"] && pos["a"] < pos["c"] && pos["b"] < pos["d"] && pos["c"] < pos["d"]) {
		t.Errorf("order = %v violates diamond constraints", order(in))
	}
}

// pathWidth is the search OutputWidth's table is an economy of: every
// path followed in full, no budget, no pruning, a reference back onto
// the path counting as unbounded. It is exponential on feedback-rich
// designs and serves here as the reference on designs it can finish.
func pathWidth(in *Info, c ast.Component, onPath map[string]bool) int {
	expr := func(e *ast.Expr) int {
		w := 0
		for _, p := range e.Parts {
			switch p := p.(type) {
			case *ast.Num:
				w += valueBits(p.Masked())
			case *ast.Bits:
				w += len(p.Digits)
			case *ast.Ref:
				if p.Mode != ast.RefWhole {
					w += p.Width()
				} else if onPath[p.Name] {
					w += ast.WidthUnbounded
				} else {
					onPath[p.Name] = true
					w += pathWidth(in, in.Spec.Component(p.Name), onPath)
					delete(onPath, p.Name)
				}
			}
		}
		return clampWidth(w)
	}
	switch c := c.(type) {
	case *ast.ALU:
		l, r := expr(&c.Left), expr(&c.Right)
		fv, ok := c.Funct.ConstValue()
		switch {
		case !ok || fv == 3 || fv == 5 || fv == 6:
			return ast.WidthUnbounded
		case fv == 1:
			return r
		case fv == 2:
			return l
		case fv == 4:
			return clampWidth(max(l, r) + 1)
		case fv == 7:
			return clampWidth(l + r)
		case fv == 8:
			return min(l, r)
		case fv == 9 || fv == 10:
			return max(l, r)
		}
		return 1
	case *ast.Selector:
		w := 1
		for i := range c.Cases {
			w = max(w, expr(&c.Cases[i]))
		}
		return w
	default:
		return expr(&c.(*ast.Memory).Data)
	}
}

// TestOutputWidthsMatchPathSearch: the budgeted, pruned table equals the
// full path search on every bundled machine, small bit-mix fabrics
// (feedback through every register) and generated designs.
func TestOutputWidthsMatchPathSearch(t *testing.T) {
	srcs, err := machines.Testdata()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{2, 1}, {3, 2}, {4, 3}} {
		srcs[fmt.Sprintf("bitmix%dx%d", r[0], r[1])] = machines.BitMixSpec(r[0], r[1])
	}
	// Each early exit of the walk, and its boundary: concatenations whose
	// first part is 28 and 31 bits wide, an add and a multiply whose left
	// operand is 30 bits, ANDs whose left operand is one bit and four, an
	// OR and a selector whose first operand is unbounded.
	srcs["exits"] = `# exits
cat28 cat31 add mul and1 and4 or sel m .
A cat28 2 134217728,m.0.3 0
A cat31 2 2147483647,m.0.3 0
A add 4 m.0.29 m.0.3
A mul 7 m.0.29 m.0
A and1 8 m.0 m
A and4 8 m.0.3 m.0.1
A or 9 m m.0.3
S sel m.0 m m.0.3
M m 0 cat28 1 1
.
`
	for seed := int64(0); seed < 64; seed++ {
		for i, cfg := range []specgen.Config{{}, {Combs: 12, Mems: 3}, {Combs: 40, Mems: 6}} {
			srcs[fmt.Sprintf("specgen%d/%d", seed, i)] = specgen.Generate(rand.New(rand.NewSource(seed)), cfg)
		}
	}
	for name, src := range srcs {
		in := mustAnalyze(t, src)
		for slot, c := range in.Order {
			if want := pathWidth(in, c, map[string]bool{c.CompName(): true}); in.Widths[slot] != want {
				t.Errorf("%s: <%s> width %d, path search %d", name, c.CompName(), in.Widths[slot], want)
			}
		}
	}
}

// TestOutputWidthsBounded: on a fabric whose feedback paths the full
// search never finishes enumerating, the table is still estimated —
// the budget runs out, every width is a valid estimate, and the walk
// resolved no more references than the budget allows.
func TestOutputWidthsBounded(t *testing.T) {
	in := mustAnalyze(t, machines.BitMixSpec(8, 12))
	w := in.walk()
	budget := w.budget
	for slot := range in.Order {
		if got := w.component(slot); got != in.Widths[slot] || got < 1 || got > ast.WidthUnbounded {
			t.Fatalf("slot %d: width %d, table has %d", slot, got, in.Widths[slot])
		}
	}
	if w.budget != 0 || budget != widthBudgetPerSlot*(len(in.Order)+1) {
		t.Errorf("walk left %d of a %d-reference budget; the fabric should exhaust it", w.budget, budget)
	}
}
