package lower

import (
	"slices"
	"testing"

	"repro/internal/rtl/parser"
	"repro/internal/rtl/sem"
	"repro/internal/sim"
)

// shapes is one spec with every term kind and every §4.4 decision:
// x's right operand mixes fields and a constant, y has a constant
// function, a whole-slot left and a multi-part constant right, and n is
// a constant-read memory whose data operand is y.
const shapes = `#l
x y m n .
A x 1 0 m.2.4,#01,m.0
A y 4 m 5.3,#10
M m 0 x 1 1
M n 0 y 0 1
.
`

func analyze(t *testing.T, src string) *sem.Info {
	t.Helper()
	spec, err := parser.ParseString("t", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// op returns the lowered op writing the named component.
func op(t *testing.T, p *Program, info *sem.Info, name string) *Op {
	t.Helper()
	for i := range p.Ops {
		if p.Ops[i].Out == info.Slot[name] {
			return &p.Ops[i]
		}
	}
	t.Fatalf("no op writes %s", name)
	return nil
}

// TestLoweredProgramShapes pins the unfolded program the bytecode
// ablation runs — slot-resolved terms with their shifts and masks, no
// §4.4 decision taken — and the folded program the compiled kernels
// and the code generators consume.
func TestLoweredProgramShapes(t *testing.T) {
	info := analyze(t, shapes)
	m, y := info.Slot["m"], info.Slot["y"]

	p := Lower(info, false)
	if p.Slots != len(info.Order) || len(p.Ops) != 2 || len(p.Latches) != 2 {
		t.Fatalf("program has %d slots, %d ops, %d latches", p.Slots, len(p.Ops), len(p.Latches))
	}
	// Right-to-left: m.0 (field, shift 0), #01 (const 1<<1), m.2.4
	// (field, shift 3).
	want := Expr{
		{Slot: m, Field: true, Mask: 1, From: 0, Shift: 0},
		{Const: true, Val: 1 << 1},
		{Slot: m, Field: true, Mask: 0b11100, From: 2, Shift: 3},
	}
	x := op(t, &p, info, "x")
	if !slices.Equal(x.Right, want) {
		t.Errorf("x right = %+v, want %+v", x.Right, want)
	}
	if x.Folded || x.Sel {
		t.Errorf("unfolded x: Folded %v Sel %v", x.Folded, x.Sel)
	}
	uy := op(t, &p, info, "y")
	if uy.Folded {
		t.Error("unfolded y has a folded function")
	}
	if c, ok := uy.Ctl.Constant(); !ok || c != sim.FnAdd {
		t.Errorf("unfolded y ctl = %+v, want constant %d", uy.Ctl, sim.FnAdd)
	}
	if !slices.Equal(uy.Left, Expr{{Slot: m}}) {
		t.Errorf("whole ref = %+v, want one unshifted whole term of slot %d", uy.Left, m)
	}
	// A multi-part constant stays a sum evaluated at run time.
	if !slices.Equal(uy.Right, Expr{{Const: true, Val: 0b10}, {Const: true, Val: 5 << 2}}) {
		t.Errorf("unfolded y right = %+v", uy.Right)
	}
	// The constant-read memory keeps its data operand.
	if n := p.Latches[1]; !slices.Equal(n.Data, Expr{{Slot: y}}) {
		t.Errorf("unfolded n data = %+v, want slot %d", n.Data, y)
	}

	p = Lower(info, true)
	fy := op(t, &p, info, "y")
	if !fy.Folded || fy.Fn != sim.FnAdd {
		t.Errorf("folded y: Folded %v Fn %d, want the add function", fy.Folded, fy.Fn)
	}
	if v, ok := fy.Right.Constant(); !ok || v != 5<<2|0b10 {
		t.Errorf("folded y right = %+v, want constant %d", fy.Right, 5<<2|0b10)
	}
	if v, ok := p.Latches[1].Data.Constant(); !ok || v != 0 {
		t.Errorf("folded n data = %+v, want the constant 0", p.Latches[1].Data)
	}
	if x := op(t, &p, info, "x"); !x.Folded || x.Fn != sim.FnRight || !slices.Equal(x.Right, want) {
		t.Errorf("folded x: Folded %v Fn %d right %+v", x.Folded, x.Fn, x.Right)
	}
}
