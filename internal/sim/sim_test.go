package sim_test

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/rtl/parser"
	"repro/internal/rtl/sem"
	"repro/internal/sim"
)

func machine(t *testing.T, src string, opts sim.Options) *sim.Machine {
	t.Helper()
	spec, err := parser.ParseString("test.sim", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Analyze(spec)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return sim.New(sim.NewLayout(info), interp.New(info), opts)
}

const counterSrc = `# counter
count* inc .
A inc 4 count 1
M count 0 inc 1 1
.
`

func TestCounterCounts(t *testing.T) {
	m := machine(t, counterSrc, sim.Options{})
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := m.Value("count"); got != 10 {
		t.Errorf("count after 10 cycles = %d, want 10", got)
	}
	if got := m.Value("inc"); got != 10 {
		t.Errorf("inc = %d, want 10 (computed from count=9 on the last cycle)", got)
	}
}

func TestMemoryOneCycleDelay(t *testing.T) {
	// r always reads cell 0, which holds 42; its output register
	// starts at 0 and only shows 42 after the first cycle.
	m := machine(t, "#d\nr .\nM r 0 0 0 -1 42\n.", sim.Options{})
	if got := m.Value("r"); got != 0 {
		t.Fatalf("before any cycle r = %d, want 0", got)
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if got := m.Value("r"); got != 42 {
		t.Errorf("after one cycle r = %d, want 42", got)
	}
}

// TestTwoPhaseCommit: two registers permanently swapping. With proper
// two-phase latching they exchange values every cycle regardless of
// declaration order.
func TestTwoPhaseCommit(t *testing.T) {
	// phase is 0 on the first cycle (loading constants 5 and 9) and 1
	// from then on (each register takes the other's output register).
	src := `#swap
a b phase .
M phase 0 1 1 1
S adata phase 5 b
S bdata phase 9 a
M a 0 adata 1 1
M b 0 bdata 1 1
.
`
	m := machine(t, src, sim.Options{})
	if err := m.Run(1); err != nil { // load 5, 9
		t.Fatal(err)
	}
	if m.Value("a") != 5 || m.Value("b") != 9 {
		t.Fatalf("after load a=%d b=%d, want 5 9", m.Value("a"), m.Value("b"))
	}
	if err := m.Run(1); err != nil { // swap
		t.Fatal(err)
	}
	if m.Value("a") != 9 || m.Value("b") != 5 {
		t.Errorf("after swap a=%d b=%d, want 9 5", m.Value("a"), m.Value("b"))
	}
	if err := m.Run(1); err != nil { // swap back
		t.Fatal(err)
	}
	if m.Value("a") != 5 || m.Value("b") != 9 {
		t.Errorf("after second swap a=%d b=%d, want 5 9", m.Value("a"), m.Value("b"))
	}
}

// TestConcatFigure31 reproduces Figure 3.1: mem.3.4,#01,count.1
// concatenates two bits of mem, the literal 01, and one bit of count.
func TestConcatFigure31(t *testing.T) {
	src := `#fig31
mem count x .
M mem 0 0 0 1
M count 0 0 0 1
A x 1 0 mem.3.4,#01,count.1
.
`
	spec, err := parser.ParseString("fig31", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	it := interp.New(info)
	vals := make([]int64, len(info.Order))
	vals[info.Slot["mem"]] = 0b11000 // bits 3,4 set
	vals[info.Slot["count"]] = 0b10  // bit 1 set
	e, err := parser.ParseExpr("mem.3.4,#01,count.1")
	if err != nil {
		t.Fatal(err)
	}
	// Layout: [mem.4 mem.3] [0 1] [count.1] = 11 01 1 = 27.
	if got := it.Eval(e, vals); got != 27 {
		t.Errorf("concat = %d (%b), want 27 (11011)", got, got)
	}
}

func TestSelectorOutOfRange(t *testing.T) {
	// m's register becomes 7 after cycle 0; the selector with two
	// cases then faults on cycle 1.
	src := `#sel
s m .
M m 0 0 0 -1 7
S s m 10 20
.
`
	m := machine(t, src, sim.Options{})
	err := m.Run(5)
	if err == nil {
		t.Fatal("want selector range error")
	}
	re, ok := err.(*sim.RuntimeError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if re.Component != "s" || re.Cycle != 1 {
		t.Errorf("error = %+v, want component s at cycle 1", re)
	}
	if !strings.Contains(re.Error(), "selector index 7") {
		t.Errorf("message = %q", re.Error())
	}
}

func TestMemoryAddressOutOfRange(t *testing.T) {
	src := `#addr
m five .
A five 1 0 5
M m five 0 0 2
.
`
	m := machine(t, src, sim.Options{})
	err := m.Run(1)
	re, ok := err.(*sim.RuntimeError)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if re.Component != "m" || !strings.Contains(re.Msg, "address 5 outside 0..1") {
		t.Errorf("error = %+v", re)
	}
}

func TestOutputConventions(t *testing.T) {
	// Three memories output to addresses 0 (char), 1 (int), 9
	// (tagged); one cycle each.
	src := `#out
c i x .
M c 0 65 3 1
M i 1 7 3 1
M x 9 8 3 1
.
`
	var out strings.Builder
	m := machine(t, src, sim.Options{Output: &out})
	if err := m.Run(1); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	want := "A\n7\nOutput to address 9: 8\n"
	if got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestInputConventions(t *testing.T) {
	src := `#in
c i .
M c 0 0 2 1
M i 1 0 2 1
.
`
	m := machine(t, src, sim.Options{Input: strings.NewReader("Z 123")})
	if err := m.Run(1); err != nil {
		t.Fatal(err)
	}
	if m.Value("c") != 'Z' {
		t.Errorf("char input = %d, want %d", m.Value("c"), 'Z')
	}
	if m.Value("i") != 123 {
		t.Errorf("int input = %d, want 123", m.Value("i"))
	}
}

func TestInputWithoutReaderFails(t *testing.T) {
	m := machine(t, "#in\nc .\nM c 0 0 2 1\n.", sim.Options{})
	err := m.Run(1)
	if err == nil || !strings.Contains(err.Error(), "no input attached") {
		t.Errorf("err = %v", err)
	}
}

func TestInputEOF(t *testing.T) {
	m := machine(t, "#in\ni .\nM i 1 0 2 1\n.", sim.Options{Input: strings.NewReader("")})
	if err := m.Run(1); err == nil {
		t.Error("want EOF error")
	}
}

func TestTraceLineFormat(t *testing.T) {
	var tr strings.Builder
	m := machine(t, counterSrc, sim.Options{Trace: &tr})
	if err := m.Run(3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(tr.String(), "\n"), "\n")
	want := []string{
		"Cycle   0 count= 0",
		"Cycle   1 count= 1",
		"Cycle   2 count= 2",
	}
	if len(lines) != len(want) {
		t.Fatalf("trace lines = %q", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestMemOpTraces(t *testing.T) {
	// op 5 = write + trace writes; op 8 = read + trace reads.
	src := `#tr
w r .
M w 0 9 5 1
M r 0 0 8 1
.
`
	var tr strings.Builder
	m := machine(t, src, sim.Options{Trace: &tr})
	if err := m.Run(1); err != nil {
		t.Fatal(err)
	}
	got := tr.String()
	if !strings.Contains(got, " Write to w at 0: 9") {
		t.Errorf("missing write trace in %q", got)
	}
	if !strings.Contains(got, " Read from r at 0: 0") {
		t.Errorf("missing read trace in %q", got)
	}
}

func TestInitialValuesAndReset(t *testing.T) {
	src := `#init
m c inc .
M m c inc 1 -3 10 20 30
A inc 4 m 1
A c 1 0 1
.
`
	m := machine(t, src, sim.Options{})
	if m.MemCell("m", 0) != 10 || m.MemCell("m", 1) != 20 || m.MemCell("m", 2) != 30 {
		t.Fatal("initial values not loaded")
	}
	if err := m.Run(4); err != nil {
		t.Fatal(err)
	}
	if m.MemCell("m", 1) == 20 && m.Cycle() == 0 {
		t.Error("simulation did not run")
	}
	m.Reset()
	if m.MemCell("m", 1) != 20 || m.Value("m") != 0 || m.Cycle() != 0 {
		t.Error("Reset did not restore power-on state")
	}
	if m.Stats().Cycles != 0 {
		t.Error("Reset did not clear stats")
	}
}

func TestStats(t *testing.T) {
	m := machine(t, counterSrc, sim.Options{})
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Cycles != 10 {
		t.Errorf("cycles = %d", st.Cycles)
	}
	if st.MemWrites() != 10 || st.MemReads() != 0 {
		t.Errorf("writes=%d reads=%d, want 10 0", st.MemWrites(), st.MemReads())
	}
	rep := st.Report([]string{"count"})
	if !strings.Contains(rep, "count") || !strings.Contains(rep, "cycles: 10") {
		t.Errorf("report = %q", rep)
	}
}

func TestRunUntil(t *testing.T) {
	m := machine(t, counterSrc, sim.Options{})
	n, ok, err := m.RunUntil(func(m *sim.Machine) bool { return m.Value("count") == 5 }, 100)
	if err != nil || !ok || n != 5 {
		t.Errorf("RunUntil = %d,%v,%v want 5,true,nil", n, ok, err)
	}
	n, ok, err = m.RunUntil(func(m *sim.Machine) bool { return false }, 7)
	if err != nil || ok || n != 7 {
		t.Errorf("RunUntil(max) = %d,%v,%v want 7,false,nil", n, ok, err)
	}
}

func TestObserverAndSetValue(t *testing.T) {
	m := machine(t, counterSrc, sim.Options{})
	calls := 0
	m.Observe(func(*sim.Machine) { calls++ })
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if calls != 10 {
		t.Errorf("observer calls = %d", calls)
	}
	m.SetValue("count", 55)
	if m.Value("count") != 55 {
		t.Error("SetValue did not stick")
	}
}

func TestSnapshot(t *testing.T) {
	m := machine(t, counterSrc, sim.Options{})
	if err := m.Run(3); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap["count"][0] != 3 {
		t.Errorf("snapshot count = %v", snap["count"])
	}
	if arr := snap["count[]"]; len(arr) != 1 || arr[0] != 3 {
		t.Errorf("snapshot count[] = %v", arr)
	}
	if _, ok := snap["inc"]; !ok {
		t.Error("snapshot missing comb component")
	}
}

func TestBackendName(t *testing.T) {
	m := machine(t, counterSrc, sim.Options{})
	if m.Backend() != "interp" {
		t.Errorf("backend = %q", m.Backend())
	}
}
