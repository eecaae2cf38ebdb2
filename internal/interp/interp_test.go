package interp

import (
	"testing"

	"repro/internal/rtl/parser"
	"repro/internal/rtl/sem"
)

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

const src = `#i
a b s m .
A a 4 m 1
A b 7 a a
S s m.0 a b
M m 0 b 1 4
.
`

func TestNamesAndModes(t *testing.T) {
	info := analyze(t, src)
	if New(info).BackendName() != "interp" {
		t.Error("New name wrong")
	}
	if NewNaive(info).BackendName() != "interp-naive" {
		t.Error("NewNaive name wrong")
	}
}

// TestNaiveMatchesIndexed: the two lookup strategies must evaluate
// identically.
func TestNaiveMatchesIndexed(t *testing.T) {
	info := analyze(t, src)
	fast, slow := New(info), NewNaive(info)

	vals1 := make([]int64, len(info.Order))
	vals2 := make([]int64, len(info.Order))
	vals1[info.Slot["m"]] = 3
	vals2[info.Slot["m"]] = 3

	for cycle := int64(0); cycle < 8; cycle++ {
		a1, d1, o1 := make([]int64, 1), make([]int64, 1), make([]int64, 1)
		a2, d2, o2 := make([]int64, 1), make([]int64, 1), make([]int64, 1)
		fast.StepCycle(vals1, a1, d1, o1, cycle)
		slow.StepCycle(vals2, a2, d2, o2, cycle)
		for i := range vals1 {
			if vals1[i] != vals2[i] {
				t.Fatalf("cycle %d slot %d: %d != %d", cycle, i, vals1[i], vals2[i])
			}
		}
		if a1[0] != a2[0] || d1[0] != d2[0] || o1[0] != o2[0] {
			t.Fatalf("cycle %d: latches differ", cycle)
		}
	}
}

// TestEvalDirect exercises the exported expression evaluator on
// representative shapes.
func TestEvalDirect(t *testing.T) {
	info := analyze(t, src)
	it := New(info)
	vals := make([]int64, len(info.Order))
	vals[info.Slot["m"]] = 0b1101
	vals[info.Slot["a"]] = 7

	cases := map[string]int64{
		"m":          0b1101,
		"m.0":        1,
		"m.1":        0,
		"m.2.3":      0b11,
		"a,m.0.3":    7<<4 | 0b1101,
		"#10,a.0.2":  0b10_111,
		"5":          5,
		"%101,#0":    0b1010,
		"12.4,m.0.1": 12<<2 | 1,
	}
	for exprSrc, want := range cases {
		e, err := parser.ParseExpr(exprSrc)
		if err != nil {
			t.Fatalf("%s: %v", exprSrc, err)
		}
		if got := it.Eval(e, vals); got != want {
			t.Errorf("Eval(%s) = %d, want %d", exprSrc, got, want)
		}
	}
}

// TestUnboundedConcatShift: in "a,m" both parts are unbounded; the
// left part lands at bit 31 (the original's numbits bookkeeping).
func TestUnboundedConcatShift(t *testing.T) {
	info := analyze(t, src)
	it := New(info)
	vals := make([]int64, len(info.Order))
	vals[info.Slot["a"]] = 3
	vals[info.Slot["m"]] = 5
	e, err := parser.ParseExpr("a,m")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := it.Eval(e, vals), int64(3)<<31+5; got != want {
		t.Errorf("Eval(a,m) = %d, want %d", got, want)
	}
	// Same rule for plain numbers.
	e, err = parser.ParseExpr("1,2")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := it.Eval(e, vals), int64(1)<<31+2; got != want {
		t.Errorf("Eval(1,2) = %d, want %d", got, want)
	}
}

func TestCombWritesDependencyOrder(t *testing.T) {
	info := analyze(t, src)
	it := New(info)
	vals := make([]int64, len(info.Order))
	latch := make([]int64, 1)
	vals[info.Slot["m"]] = 3 // m.0 = 1 -> selector picks b
	it.StepCycle(vals, latch, latch, latch, 0)
	// a = m + 1 = 4; b = a*a = 16; s = b (m.0 = 1).
	if vals[info.Slot["a"]] != 4 || vals[info.Slot["b"]] != 16 || vals[info.Slot["s"]] != 16 {
		t.Errorf("vals: a=%d b=%d s=%d", vals[info.Slot["a"]], vals[info.Slot["b"]], vals[info.Slot["s"]])
	}
	vals[info.Slot["m"]] = 2 // m.0 = 0 -> selector picks a
	it.StepCycle(vals, latch, latch, latch, 1)
	if vals[info.Slot["s"]] != vals[info.Slot["a"]] {
		t.Error("selector case 0 should pick a")
	}
}

func TestSelectorFailurePanicsRuntimeError(t *testing.T) {
	info := analyze(t, "#x\ns m .\nS s m 1 2\nM m 0 0 0 4\n.")
	it := New(info)
	vals := make([]int64, len(info.Order))
	vals[info.Slot["m"]] = 9
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected panic for out-of-range selector")
		}
	}()
	latch := make([]int64, 1)
	it.StepCycle(vals, latch, latch, latch, 0)
}
