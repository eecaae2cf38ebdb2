package modules_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rtl/modules"
)

// expand + parse + build a machine, failing on any stage.
func run(t *testing.T, src string, backend core.Backend) (*core.Spec, *core.Machine) {
	t.Helper()
	expanded, err := modules.Expand("test.sim", src)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	spec, err := core.ParseString("test.sim", expanded)
	if err != nil {
		t.Fatalf("parse expanded:\n%s\n%v", expanded, err)
	}
	m, err := core.NewMachine(spec, backend, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return spec, m
}

const twoCounters = `# two independent counters via a module
D counter step
A next 4 value @step
M value 0 next 1 1
E
x .
A x 1 0 1
U slow counter 1
U fast counter 3
.
`

func TestTwoCounterInstances(t *testing.T) {
	_, m := run(t, twoCounters, core.Compiled)
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := m.Value("slowvalue"); got != 10 {
		t.Errorf("slowvalue = %d, want 10", got)
	}
	if got := m.Value("fastvalue"); got != 30 {
		t.Errorf("fastvalue = %d, want 30", got)
	}
}

func TestInstanceNamesAutoDeclared(t *testing.T) {
	spec, _ := run(t, twoCounters, core.Interp)
	if len(spec.Warnings()) != 0 {
		t.Errorf("warnings = %v", spec.Warnings())
	}
}

func TestExplicitTraceOfModuleSignal(t *testing.T) {
	src := strings.Replace(twoCounters, "x .", "x slowvalue* .", 1)
	spec, _ := run(t, src, core.Interp)
	traced := spec.AST.TracedNames()
	if len(traced) != 1 || traced[0] != "slowvalue" {
		t.Errorf("traced = %v", traced)
	}
	if len(spec.Warnings()) != 0 {
		t.Errorf("warnings = %v", spec.Warnings())
	}
}

func TestArgumentsAreExpressions(t *testing.T) {
	// Pass a subfield expression and a literal through a parameter.
	src := `# expr args
D taker in
A out 1 0 @in
E
m .
M m 0 1 1 1
U t1 taker m.0.2,#01
.
`
	_, m := run(t, src, core.Compiled)
	if err := m.Run(3); err != nil {
		t.Fatal(err)
	}
	// m=1 -> m.0.2 = 1, concat with #01 -> 0b101 = 5... m register
	// holds 1 after the first write; 1<<2|1 = 5.
	if got := m.Value("t1out"); got != 5 {
		t.Errorf("t1out = %d, want 5", got)
	}
}

func TestLocalsDoNotLeakAcrossInstances(t *testing.T) {
	_, m := run(t, twoCounters, core.Compiled)
	layout := m.Layout()
	if _, ok := layout.Slot("value"); ok {
		t.Error("unprefixed local leaked into the global namespace")
	}
	for _, want := range []string{"slownext", "slowvalue", "fastnext", "fastvalue"} {
		if _, ok := layout.Slot(want); !ok {
			t.Errorf("missing instantiated component %s", want)
		}
	}
}

func TestNestedInstantiation(t *testing.T) {
	src := `# a module using another module
D bit step
A bnext 4 bval @step
M bval 0 bnext.0.0 1 1
E
D pair step
U lo bit @step
A sum 4 lobval @step
E
x .
A x 1 0 1
U p pair 1
.
`
	_, m := run(t, src, core.Compiled)
	if err := m.Run(4); err != nil {
		t.Fatal(err)
	}
	// plobval toggles 0/1 each cycle.
	if got := m.Value("plobval"); got != 0 {
		t.Errorf("plobval after 4 cycles = %d, want 0", got)
	}
	if _, ok := m.Layout().Slot("psum"); !ok {
		t.Error("outer module component psum missing")
	}
}

func TestModuleUsesGlobalsAndMacros(t *testing.T) {
	src := `# module referencing a global component and a macro
~k 2
D adder
A asum 4 g ~k
E
g .
A g 1 0 5
U a1 adder
.
`
	_, m := run(t, src, core.Compiled)
	if err := m.Run(1); err != nil {
		t.Fatal(err)
	}
	if got := m.Value("a1asum"); got != 7 {
		t.Errorf("a1asum = %d, want 7", got)
	}
}

func TestPlainSpecPassesThrough(t *testing.T) {
	src := "# plain\n= 7\na* .\nM a 0 a 1 1\n.\n"
	out, err := modules.Expand("t", src)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseString("t", out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !spec.AST.HasCycles || spec.AST.Cycles != 7 {
		t.Error("cycle count lost")
	}
	if len(spec.AST.Names) != 1 || !spec.AST.Names[0].Trace {
		t.Error("name list lost")
	}
}

func TestHexLiteralsNotPrefixed(t *testing.T) {
	// $AB contains letters that must not be mistaken for the local
	// component name "AB"... locals here: component "B".
	src := `# hex
D h
A B 1 0 $0B
A c 4 B $0B
E
x .
A x 1 0 1
U i h
.
`
	_, m := run(t, src, core.Compiled)
	if err := m.Run(1); err != nil {
		t.Fatal(err)
	}
	if got := m.Value("ic"); got != 22 {
		t.Errorf("ic = %d, want 22 (11 + 11)", got)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ name, src, sub string }{
		{"unterminated", "#c\nD m a\nA x 1 0 @a\nq .\nA q 1 0 1\n.", "not terminated by 'E'"},
		{"empty", "#c\nD m\nE\nq .\nA q 1 0 1\n.", "empty body"},
		{"dupModule", "#c\nD m\nA x 1 0 1\nE\nD m\nA y 1 0 1\nE\nq .\nA q 1 0 1\n.", "defined twice"},
		{"nestedDef", "#c\nD m\nD n\nA x 1 0 1\nE\nE\nq .\nA q 1 0 1\n.", "do not nest"},
		{"unknownModule", "#c\nq .\nA q 1 0 1\nU i ghost\n.", "not defined"},
		{"missingArgs", "#c\nD m a b\nA x 1 0 @a\nE\nq .\nA q 1 0 1\nU i m 5\n.", "2 arguments required"},
		{"unknownParam", "#c\nD m a\nA x 1 0 @b\nE\nq .\nA q 1 0 1\nU i m 5\n.", "unknown module parameter"},
		{"paramLocalClash", "#c\nD m a\nA a 1 0 1\nE\nq .\nA q 1 0 1\n.", "both a parameter and a local"},
		{"badInstanceName", "#c\nD m\nA x 1 0 1\nE\nq .\nA q 1 0 1\nU 9i m\n.", "instance name"},
		{"dupParam", "#c\nD m a a\nA x 1 0 @a\nE\nq .\nA q 1 0 1\n.", "duplicate parameter"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := modules.Expand("t", c.src)
			if err == nil || !strings.Contains(err.Error(), c.sub) {
				t.Errorf("err = %v, want %q", err, c.sub)
			}
		})
	}
}

func TestRecursionRejected(t *testing.T) {
	// Mutual self-instantiation cannot be built (modules must be
	// defined before use), but self-reference inside a body is caught
	// by the unknown-module check at definition... actually at
	// instantiation time. Build an artificial deep chain instead.
	var b strings.Builder
	b.WriteString("#deep\n")
	b.WriteString("D m0\nA x 1 0 1\nE\n")
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&b, "D m%d\nU i m%d\nE\n", i, i-1)
	}
	b.WriteString("q .\nA q 1 0 1\nU top m20\n.")
	_, err := modules.Expand("t", b.String())
	if err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Errorf("err = %v", err)
	}
}
