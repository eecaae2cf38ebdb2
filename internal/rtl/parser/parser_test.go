package parser

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/rtl/ast"
)

const tinySpec = `# a tiny test spec
~w 8
~st 4
= 100
state* alu sel mem .
A alu compute left 3048
S sel idx alu mem left
M mem addr data opn -4 12 34 56 78
A compute 4 state.0.~st 1
M state 0 alu 1 1
A left 2 mem 0
A idx 1 0 0
A addr 1 0 0
A data 1 0 0
A opn 1 0 0
.
`

func mustParse(t *testing.T, src string) *ast.Spec {
	t.Helper()
	spec, err := ParseString("test.sim", src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return spec
}

func TestParseHeader(t *testing.T) {
	spec := mustParse(t, tinySpec)
	if spec.Comment != " a tiny test spec" {
		t.Errorf("comment = %q", spec.Comment)
	}
	if !spec.HasCycles || spec.Cycles != 100 {
		t.Errorf("cycles = %d (has=%v), want 100", spec.Cycles, spec.HasCycles)
	}
	if len(spec.Macros) != 2 || spec.Macros[0].Name != "w" || spec.Macros[1].Text != "4" {
		t.Errorf("macros = %+v", spec.Macros)
	}
}

func TestParseNameList(t *testing.T) {
	spec := mustParse(t, tinySpec)
	if len(spec.Names) != 4 {
		t.Fatalf("names = %+v", spec.Names)
	}
	if !spec.Names[0].Trace || spec.Names[0].Name != "state" {
		t.Errorf("first name = %+v, want traced 'state'", spec.Names[0])
	}
	for _, n := range spec.Names[1:] {
		if n.Trace {
			t.Errorf("name %s unexpectedly traced", n.Name)
		}
	}
	traced := spec.TracedNames()
	if len(traced) != 1 || traced[0] != "state" {
		t.Errorf("TracedNames = %v", traced)
	}
}

func TestParseComponents(t *testing.T) {
	spec := mustParse(t, tinySpec)
	if len(spec.Components) != 10 {
		t.Fatalf("got %d components", len(spec.Components))
	}
	alu, ok := spec.Component("alu").(*ast.ALU)
	if !ok {
		t.Fatal("alu not an ALU")
	}
	if alu.Funct.String() != "compute" || alu.Left.String() != "left" || alu.Right.String() != "3048" {
		t.Errorf("alu operands = %s %s %s", alu.Funct.String(), alu.Left.String(), alu.Right.String())
	}

	sel, ok := spec.Component("sel").(*ast.Selector)
	if !ok {
		t.Fatal("sel not a Selector")
	}
	if len(sel.Cases) != 3 {
		t.Errorf("selector cases = %d, want 3", len(sel.Cases))
	}

	mem, ok := spec.Component("mem").(*ast.Memory)
	if !ok {
		t.Fatal("mem not a Memory")
	}
	if mem.Size != 4 {
		t.Errorf("mem size = %d, want 4", mem.Size)
	}
	want := []int64{12, 34, 56, 78}
	for i, v := range want {
		if mem.Init[i] != v {
			t.Errorf("mem.Init[%d] = %d, want %d", i, mem.Init[i], v)
		}
	}
}

func TestMacroExpansionInComponents(t *testing.T) {
	spec := mustParse(t, tinySpec)
	c := spec.Component("compute").(*ast.ALU)
	// state.0.~st must have expanded to state.0.4.
	if got := c.Left.String(); got != "state.0.4" {
		t.Errorf("compute.Left = %q, want state.0.4", got)
	}
}

func TestPositiveMemoryHasNoInit(t *testing.T) {
	spec := mustParse(t, tinySpec)
	m := spec.Component("state").(*ast.Memory)
	if m.Init != nil || m.Size != 1 {
		t.Errorf("state memory = size %d init %v", m.Size, m.Init)
	}
}

func TestRoundTripThroughPrinter(t *testing.T) {
	spec := mustParse(t, tinySpec)
	again := mustParse(t, spec.String())
	if len(again.Components) != len(spec.Components) {
		t.Fatalf("reparse component count %d != %d", len(again.Components), len(spec.Components))
	}
	for i := range spec.Components {
		if spec.Components[i].String() != again.Components[i].String() {
			t.Errorf("component %d: %q != %q", i, spec.Components[i].String(), again.Components[i].String())
		}
	}
	if again.Cycles != spec.Cycles || len(again.Names) != len(spec.Names) {
		t.Error("header did not round-trip")
	}
}

func TestMissingComment(t *testing.T) {
	_, err := ParseString("t", "no comment here\nx .\n.")
	if err == nil || !strings.Contains(err.Error(), "comment required") {
		t.Errorf("err = %v, want comment-required", err)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"badComponentLetter", "#c\nx .\nQ x 1 1 1\n.", "component expected"},
		{"unterminatedNames", "#c\na b c", "name list not terminated"},
		{"unterminatedComponents", "#c\na .\nA a 1 1 1\n", "not terminated"},
		{"missingALUOperand", "#c\na .\nA a 1 1\n.", "right operand missing"},
		{"selectorNoValues", "#c\na .\nS a 1\n.", "at least one value"},
		{"memoryMissingInit", "#c\na .\nM a 0 0 0 -3 1 2\n.", "initial values required"},
		{"memoryZeroCells", "#c\na .\nM a 0 0 0 0\n.", "nonzero"},
		{"badName", "#c\n9x .\n.", "invalid"},
		{"badMacroName", "#c\n~9x foo\na .\n.", "invalid"},
		{"badCycles", "#c\n= xyz\na .\n.", "cycle count"},
		{"undefinedMacro", "#c\na .\nA a ~nope 1 1\n.", "not defined"},
		{"badExprChar", "#c\na .\nA a 1 *x 1\n.", "unexpected character"},
		{"badSubfieldOrder", "#c\na .\nA a 1 x.5.2 1\n.", "high bit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString("t", c.src)
			if err == nil {
				t.Fatalf("ParseString(%q): want error containing %q", c.src, c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("err = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

// TestInitCountNotPreallocated: an initialized memory's declared count
// is only a claim until its values arrive, so a spec that declares ten
// million cells and gives one value is rejected having allocated
// nothing proportional to the count (it would be 80 MB).
func TestInitCountNotPreallocated(t *testing.T) {
	const src = "# x\n= 1\nm .\nM m 0 0 0 -10000000 1 ."
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseString("t", src)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "10000000 initial values required, got 1") {
		t.Fatalf("err = %v, want the initial-values error", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("parsing the rejected spec allocated %d bytes, want under 1 MiB", n)
	}
}

func TestLastComponentHintInError(t *testing.T) {
	_, err := ParseString("t", "#c\na b .\nA a 1 1 1\nQ b 1 1 1\n.")
	if err == nil || !strings.Contains(err.Error(), "last component read is <a>") {
		t.Errorf("err = %v, want last-component hint", err)
	}
}

func TestParseExprParts(t *testing.T) {
	e, err := ParseExpr("mem.3.4,#01,count.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Parts) != 3 {
		t.Fatalf("parts = %d", len(e.Parts))
	}
	r0 := e.Parts[0].(*ast.Ref)
	if r0.Name != "mem" || r0.Mode != ast.RefRange || r0.From != 3 || r0.To != 4 {
		t.Errorf("part0 = %+v", r0)
	}
	b := e.Parts[1].(*ast.Bits)
	if b.Digits != "01" || b.Width() != 2 || b.Value() != 1 {
		t.Errorf("part1 = %+v", b)
	}
	r2 := e.Parts[2].(*ast.Ref)
	if r2.Name != "count" || r2.Mode != ast.RefBit || r2.From != 1 {
		t.Errorf("part2 = %+v", r2)
	}
	// Width: 2 + 2 + 1 = 5 bits.
	if e.Width() != 5 {
		t.Errorf("width = %d, want 5", e.Width())
	}
}

func TestParseExprNumbers(t *testing.T) {
	e, err := ParseExpr("128+3+^8")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := e.ConstValue()
	if !ok || v != 387 {
		t.Errorf("ConstValue = %d,%v want 387,true", v, ok)
	}

	e, err = ParseExpr("12.4")
	if err != nil {
		t.Fatal(err)
	}
	n := e.Parts[0].(*ast.Num)
	if !n.HasWidth || n.WidthLim != 4 || n.Masked() != 12 {
		t.Errorf("12.4 = %+v masked %d", n, n.Masked())
	}

	// Width-limited constant concatenation: 5.3,#10 = 101_10 = 22.
	// ('#' bit strings carry their width; '%' literals are plain
	// numbers with unbounded width, as in the thesis' expr code.)
	e, err = ParseExpr("5.3,#10")
	if err != nil {
		t.Fatal(err)
	}
	v, ok = e.ConstValue()
	if !ok || v != 22 {
		t.Errorf("5.3,#10 = %d,%v want 22,true", v, ok)
	}
}

func TestParseExprErrors(t *testing.T) {
	bad := []string{"", ",", "a,", ",a", "x.1.2.3", "#", "#012", "x..1", "1.", "1.0", "$G", "x.32", "9z"}
	for _, s := range bad {
		if _, err := ParseExpr(s); err == nil {
			t.Errorf("ParseExpr(%q): want error", s)
		}
	}
}

func TestTooManyBits(t *testing.T) {
	// An unbounded-width part anywhere but leftmost overflows the
	// 31-bit concatenation budget, as in the original compiler.
	bad := []string{"x.0.3,y", "x.0.3,5", "x.0.15,y.0.15,z.0.3"}
	for _, s := range bad {
		if _, err := ParseExpr(s); err == nil || !strings.Contains(err.Error(), "too many bits") {
			t.Errorf("ParseExpr(%q) err = %v, want too-many-bits", s, err)
		}
	}
	// Unbounded parts *set* the running width to 31 rather than adding
	// to it, so "a,b" and "1,2" are accepted (the left part lands at
	// shift 31), exactly as the original's numbits bookkeeping did.
	good := []string{"y,x.0.3", "5,x.0.3", "x", "5", "a.0.15,b.0.14", "#01,x.2", "a,b", "1,2"}
	for _, s := range good {
		if _, err := ParseExpr(s); err != nil {
			t.Errorf("ParseExpr(%q) err = %v, want nil", s, err)
		}
	}
}

func TestExprRefs(t *testing.T) {
	e, err := ParseExpr("a.1,b.0.2,#01,a.2.3")
	if err != nil {
		t.Fatal(err)
	}
	refs := e.Refs()
	want := []string{"a", "b", "a"}
	if len(refs) != len(want) {
		t.Fatalf("refs = %v", refs)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Errorf("refs[%d] = %s, want %s", i, refs[i], want[i])
		}
	}
}

func TestTrailingContentIgnored(t *testing.T) {
	spec := mustParse(t, "#c\na .\nA a 1 1 1\n. this is ignored")
	if len(spec.Components) != 1 {
		t.Errorf("components = %d", len(spec.Components))
	}
}

func TestParseReader(t *testing.T) {
	spec, err := Parse("r", strings.NewReader("#c\na .\nA a 1 1 1\n."))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Components) != 1 {
		t.Error("Parse via reader failed")
	}
}

func TestStackMachineMacroIdioms(t *testing.T) {
	// Idioms taken from Appendix D: macros used mid-token with
	// non-alphanumeric delimiters, sum literals in selector values.
	src := `# appendix D idioms
~w 8
~z 12
~pack #0000
state rom exit .
A exit %110,rom.~w state rom.~w,~pack
S rom state.0.5 128+3+^8 0+^5+^7+^8 ~z
M state 0 exit 1 1
.
`
	spec := mustParse(t, src)
	exit := spec.Component("exit").(*ast.ALU)
	if got := exit.Funct.String(); got != "%110,rom.8" {
		t.Errorf("exit funct = %q", got)
	}
	if got := exit.Right.String(); got != "rom.8,#0000" {
		t.Errorf("exit right = %q", got)
	}
	rom := spec.Component("rom").(*ast.Selector)
	if v, ok := rom.Cases[0].ConstValue(); !ok || v != 387 {
		t.Errorf("rom case0 = %d,%v", v, ok)
	}
	if v, ok := rom.Cases[2].ConstValue(); !ok || v != 12 {
		t.Errorf("rom case2 = %d,%v", v, ok)
	}
}
