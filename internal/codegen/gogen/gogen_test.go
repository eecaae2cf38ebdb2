package gogen_test

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codegen/gogen"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/specgen"
)

func gen(t *testing.T, src string, opts gogen.Options) string {
	t.Helper()
	spec, err := core.ParseString("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return gogen.Generate(spec.Info, opts)
}

// parseGo checks the generated source is syntactically valid Go.
func parseGo(t *testing.T, src string) {
	t.Helper()
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
}

// TestFigure41 reproduces Figure 4.1: the generic ALU calls dologic,
// the constant-function ALU compiles to an inline add.
func TestFigure41(t *testing.T) {
	src := `#fig41
alu add compute left .
A alu compute left 3048
A add 4 left 3048
A compute 1 0 4
A left 1 0 7
.
`
	out := gen(t, src, gogen.Options{Cycles: 1})
	parseGo(t, out)
	if !strings.Contains(out, "ljbalu = dologic(ljbcompute, ljbleft, 3048)") {
		t.Errorf("generic ALU code missing:\n%s", out)
	}
	if !strings.Contains(out, "ljbadd = ljbleft + 3048") {
		t.Errorf("optimized constant-add code missing:\n%s", out)
	}
}

// TestFigure42 reproduces Figure 4.2: a selector becomes a case
// dispatch over its values.
func TestFigure42(t *testing.T) {
	src := `#fig42
selector index value0 value1 value2 value3 .
S selector index value0 value1 value2 value3
A index 1 0 m.0.1
A value0 1 0 10
A value1 1 0 11
A value2 1 0 12
A value3 1 0 13
M m 0 0 0 4
.
`
	out := gen(t, src, gogen.Options{Cycles: 1})
	parseGo(t, out)
	for i := 0; i < 4; i++ {
		want := fmt.Sprintf("ljbselector = ljbvalue%d", i)
		if !strings.Contains(out, want) {
			t.Errorf("selector case %d missing (%q):\n%s", i, want, out)
		}
	}
	if !strings.Contains(out, "switch ljbindex {") {
		t.Errorf("selector switch missing:\n%s", out)
	}
}

// TestFigure43 reproduces Figure 4.3: memory init values, the
// operation dispatch, and the trace-bit checks.
func TestFigure43(t *testing.T) {
	src := `#fig43
memory address data operation .
M memory address data operation -4 12 34 56 78
A address 1 0 memory.0.1
A data 4 memory 1
A operation 1 0 memory.0.3
.
`
	out := gen(t, src, gogen.Options{Cycles: 1})
	parseGo(t, out)
	for i, v := range []int{12, 34, 56, 78} {
		want := fmt.Sprintf("ljbmemory[%d] = %d", i, v)
		if !strings.Contains(out, want) {
			t.Errorf("init value %d missing (%q)", i, want)
		}
	}
	if !strings.Contains(out, "switch opnmemory & 3 {") {
		t.Errorf("operation dispatch missing:\n%s", out)
	}
	if !strings.Contains(out, "tempmemory = sinput(adrmemory)") {
		t.Errorf("input case missing:\n%s", out)
	}
	if !strings.Contains(out, "land(opnmemory, 5) == 5") {
		t.Errorf("write-trace check missing:\n%s", out)
	}
	if !strings.Contains(out, "land(opnmemory, 9) == 8") {
		t.Errorf("read-trace check missing:\n%s", out)
	}
}

// TestConstantMemoryOpDropsDispatch: §4.4's second optimization.
func TestConstantMemoryOpDropsDispatch(t *testing.T) {
	out := gen(t, "#c\nm .\nM m 0 5 1 1\n.", gogen.Options{Cycles: 1})
	parseGo(t, out)
	if strings.Contains(out, "switch opnm & 3") {
		t.Errorf("constant op should drop the dispatch switch:\n%s", out)
	}
	if !strings.Contains(out, "ljbm[adrm] = datam") {
		t.Errorf("write commit missing:\n%s", out)
	}
}

// TestDeadLatchElision: constant-read memories get neither a data nor
// an operation latch assignment in the generated loop.
func TestDeadLatchElision(t *testing.T) {
	out := gen(t, "#d\nx m .\nA x 4 m 9\nM m 0 x 0 2\n.", gogen.Options{Cycles: 1})
	parseGo(t, out)
	if strings.Contains(out, "datam =") {
		t.Errorf("data latch should be elided for a constant read:\n%s", out)
	}
	if strings.Contains(out, "opnm =") {
		t.Errorf("operation latch should be elided for a constant op:\n%s", out)
	}
	// A write memory keeps its data latch.
	out = gen(t, "#d\nx m .\nA x 4 m 9\nM m 0 x 1 2\n.", gogen.Options{Cycles: 1})
	parseGo(t, out)
	if !strings.Contains(out, "datam =") {
		t.Errorf("write memory lost its data latch:\n%s", out)
	}
}

// TestDologicElision: when every ALU function is constant and foldable
// the dologic helper is not emitted at all.
func TestDologicElision(t *testing.T) {
	out := gen(t, "#c\na .\nA a 4 1 2\n.", gogen.Options{Cycles: 1})
	parseGo(t, out)
	if strings.Contains(out, "func dologic") {
		t.Errorf("dologic should be elided:\n%s", out)
	}
	out = gen(t, "#c\na m .\nA a m 1 2\nM m 0 0 0 2\n.", gogen.Options{Cycles: 1})
	parseGo(t, out)
	if !strings.Contains(out, "func dologic") {
		t.Errorf("dynamic function requires dologic:\n%s", out)
	}
}

func TestGeneratedRandomSpecsParse(t *testing.T) {
	for seed := 0; seed < 30; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		src := specgen.Generate(rng, specgen.Config{Combs: 1 + rng.Intn(10), Mems: 1 + rng.Intn(3)})
		spec, err := core.ParseString("rand", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		parseGo(t, gogen.Generate(spec.Info, gogen.Options{Cycles: 10}))
	}
}

// TestGeneratedCounterMatchesMachine compiles and runs the generated
// counter simulator and diffs its trace against the in-process
// machine's trace — the generated program and the library must be
// observationally identical.
func TestGeneratedCounterMatchesMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	src := machines.Counter()
	const cycles = 25

	spec, err := core.ParseString("counter", src)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	m, err := core.NewMachine(spec, core.Interp, core.Options{Trace: &trace})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(cycles); err != nil {
		t.Fatal(err)
	}

	out := runGenerated(t, spec, gogen.Options{Cycles: cycles}, "")
	if out != trace.String() {
		t.Errorf("generated output differs:\n--- generated ---\n%s--- machine ---\n%s", out, trace.String())
	}
}

// TestGeneratedSievePrintsPrimes compiles and runs the generated stack
// machine and checks the primes — the full Figure 5.1 pipeline.
func TestGeneratedSievePrintsPrimes(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	const size = 10
	srcSpec, err := machines.SieveSpec(size)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseString("sieve", srcSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Determine the halt cycle with the in-process machine first.
	m, err := core.NewMachine(spec, core.Compiled, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, halted, err := m.RunUntil(func(m *core.Machine) bool {
		return m.Value("state") == machines.HaltState
	}, 100_000)
	if err != nil || !halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}

	out := runGenerated(t, spec, gogen.Options{Cycles: n}, "")
	var want strings.Builder
	for _, p := range machines.SievePrimes(size) {
		fmt.Fprintf(&want, "%d\n", p)
	}
	if out != want.String() {
		t.Errorf("generated sieve output = %q, want %q", out, want.String())
	}
}

// runGenerated generates, builds and runs a simulator, returning its
// stdout.
func runGenerated(t *testing.T, spec *core.Spec, opts gogen.Options, stdin string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "main.go")
	if err := os.WriteFile(path, []byte(gogen.Generate(spec.Info, opts)), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "simbin")
	build := exec.Command("go", "build", "-o", bin, path)
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin)
	cmd.Stdin = strings.NewReader(stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	return stdout.String()
}

// TestInputProgram drives a generated simulator through its stdin.
func TestInputProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	// Echo machine: read an integer each cycle, write it back out.
	src := `#echo
in out .
M in 1 0 2 1
M out 1 in 3 1
.
`
	spec, err := core.ParseString("echo", src)
	if err != nil {
		t.Fatal(err)
	}
	out := runGenerated(t, spec, gogen.Options{Cycles: 3}, "10 20 30 40")
	// One-cycle memory delay: out lags in by one cycle.
	if out != "0\n10\n20\n" {
		t.Errorf("echo output = %q", out)
	}
}
