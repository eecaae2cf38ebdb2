package bytecode

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

func TestBackendName(t *testing.T) {
	info := analyze(t, "#c\na .\nA a 1 0 1\n.")
	if New(info).BackendName() != "bytecode" {
		t.Error("name wrong")
	}
}

// step runs one StepCycle over vals and returns the memory latches.
func step(vm *VM, vals []int64, mems int, cycle int64) (addr, data, opn []int64) {
	addr, data, opn = make([]int64, mems), make([]int64, mems), make([]int64, mems)
	vm.StepCycle(vals, addr, data, opn, cycle)
	return addr, data, opn
}

// TestRunAccumulates: a concatenated operand is the sum of its shifted
// terms, fields and constants alike.
func TestRunAccumulates(t *testing.T) {
	info := analyze(t, "#r\nx m .\nA x 1 0 m.0.3,#11,5.2\nM m 0 x 1 1\n.")
	vals := make([]int64, len(info.Order))
	vals[info.Slot["m"]] = 0b1010
	step(New(info), vals, 1, 0)
	// Layout: m.0.3 (4 bits) | 11 (2 bits) | 5.2 (2 bits) = 1010_11_01.
	if got := vals[info.Slot["x"]]; got != 0b10101101 {
		t.Errorf("x = %#b, want 10101101", got)
	}
}

// TestCombAndMemInputs: one StepCycle computes the combinational
// outputs in dependency order, then latches the memory inputs from them.
func TestCombAndMemInputs(t *testing.T) {
	info := analyze(t, `#c
sum sel m .
A sum 4 m 1
S sel m.0 sum 7
M m sum.0.1 sel 1 4
.
`)
	vm := New(info)
	vals := make([]int64, len(info.Order))
	vals[info.Slot["m"]] = 2
	addr, data, opn := step(vm, vals, 1, 0)
	if vals[info.Slot["sum"]] != 3 {
		t.Errorf("sum = %d", vals[info.Slot["sum"]])
	}
	if vals[info.Slot["sel"]] != 3 { // m.0 = 0 -> case 0 = sum
		t.Errorf("sel = %d", vals[info.Slot["sel"]])
	}
	if addr[0] != 3 || data[0] != 3 || opn[0] != 1 {
		t.Errorf("latches = %d %d %d", addr[0], data[0], opn[0])
	}
}

func TestSelectorFault(t *testing.T) {
	info := analyze(t, "#f\ns m .\nS s m 1 2\nM m 0 0 0 8\n.")
	vm := New(info)
	vals := make([]int64, len(info.Order))
	vals[info.Slot["m"]] = 5
	defer func() {
		if recover() == nil {
			t.Error("expected selector fault")
		}
	}()
	step(vm, vals, 1, 3)
}

// TestDynamicALUFunct: dologic dispatch with a runtime function code.
func TestDynamicALUFunct(t *testing.T) {
	info := analyze(t, "#d\na m .\nA a m.0.3 6 2\nM m 0 a 1 1\n.")
	vm := New(info)
	vals := make([]int64, len(info.Order))
	for funct, want := range map[int64]int64{4: 8, 5: 4, 7: 12, 12: 0, 13: 0} {
		vals[info.Slot["m"]] = funct
		step(vm, vals, 1, 0)
		if got := vals[info.Slot["a"]]; got != want {
			t.Errorf("funct %d: %d, want %d", funct, got, want)
		}
	}
}
