package asim2

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"unicode"
)

// runCLI executes one of the repo's commands via `go run`.
func runCLI(t *testing.T, stdin string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Stdin = strings.NewReader(stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run %v: %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// runCLIFailing executes one of the repo's commands via `go run`, with
// env added to its environment, and demands that it fail; it returns
// the command's stderr. The go tool's own work directory is kept out of
// the command's TMPDIR.
func runCLIFailing(t *testing.T, env []string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Env = append(append(os.Environ(), "GOTMPDIR="+t.TempDir()), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("go run %v succeeded; want a failure", args)
	}
	return stderr.String()
}

func TestCLIAsimCounter(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	out, _ := runCLI(t, "", "./cmd/asim", "-cycles", "3", "testdata/counter.sim")
	want := "Cycle   0 count= 0 carry= 0\nCycle   1 count= 1 carry= 0\nCycle   2 count= 2 carry= 0\n"
	if out != want {
		t.Errorf("asim output = %q", out)
	}
}

// TestCLIAsimHelpListsBackends: the -backend usage string is built
// from Backends(), so a new backend cannot go missing from `asim -h`.
func TestCLIAsimHelpListsBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	_, usage := runCLI(t, "", "./cmd/asim", "-h")
	listed := map[string]bool{}
	for _, word := range strings.FieldsFunc(usage, func(r rune) bool { return r == ',' || unicode.IsSpace(r) }) {
		listed[word] = true
	}
	for _, b := range Backends() {
		if !listed[string(b)] {
			t.Errorf("asim -h does not list backend %s:\n%s", b, usage)
		}
	}
}

func TestCLIAsimIBSM1986(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	out, _ := runCLI(t, "", "./cmd/asim", "-trace=false", "testdata/ibsm1986.sim")
	if !strings.HasPrefix(out, "3\n5\n7\n11\n") || !strings.Contains(out, "43\n") {
		t.Errorf("ibsm1986 primes = %q", out)
	}
}

func TestCLIAsimStatsAndFault(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	_, stderr := runCLI(t, "", "./cmd/asim",
		"-trace=false", "-stats", "-cycles", "20",
		"-fault", "count:0:stuck1:0:100", "testdata/counter.sim")
	if !strings.Contains(stderr, "cycles: 20") {
		t.Errorf("stats missing: %q", stderr)
	}
}

// TestCLIAsimVCDOnFault: a run that faults still flushes its VCD dump,
// so the file ends with a complete line and holds the faulting cycle.
func TestCLIAsimVCDOnFault(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	path := filepath.Join(t.TempDir(), "out.vcd")
	stderr := runCLIFailing(t, nil, "./cmd/asim", "-trace=false", "-vcd", path, "-signals", "pc",
		"-cycles", "7000", "testdata/ibsm1986.sim")
	if !strings.Contains(stderr, "cycle 5547:") {
		t.Fatalf("want the run to fault at cycle 5547; stderr: %s", stderr)
	}
	dump, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(dump, []byte("\n")) {
		t.Errorf("dump of %d bytes ends mid-line: %q", len(dump), dump[max(0, len(dump)-20):])
	}
	if !bytes.Contains(dump, []byte("\n#5547\n")) {
		t.Errorf("dump of %d bytes lacks the faulting cycle's marker #5547", len(dump))
	}
}

// TestCLIAsimsweepAOTTempDirRemoved: asimsweep -aot removes its
// temporary worker cache on a failing exit too.
func TestCLIAsimsweepAOTTempDirRemoved(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	for name, args := range map[string][]string{
		"unknown scenario": {"nosuch"},
		"trace write":      {"-n", "2", "-cycles", "10", "-trace-out", filepath.Join(t.TempDir(), "missing", "trace.json"), "sieve-fleet"},
	} {
		tmp := t.TempDir()
		runCLIFailing(t, []string{"TMPDIR=" + tmp}, append([]string{"./cmd/asimsweep", "-aot"}, args...)...)
		left, err := filepath.Glob(filepath.Join(tmp, "asimsweep-aot-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Errorf("%s: asimsweep left %v behind", name, left)
		}
	}
}

// TestCLIBenchTempDirsRemoved: asimbench and figure51 remove their
// temporary directories on a failing exit too. Each is built, then run
// with no go toolchain on PATH, so it fails at the first go build it
// starts: asimbench's AOT worker, figure51's generated program.
func TestCLIBenchTempDirsRemoved(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	for _, c := range []struct {
		cmd, left string
		args      []string
	}{
		{"asimbench", "asimbench-aot-*", []string{"-short", "-reps", "1", "-cycles", "1000", "-workers", "1", "-o", "-"}},
		{"figure51", "figure51*", []string{"-mult", "1"}},
	} {
		bin := filepath.Join(t.TempDir(), c.cmd)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+c.cmd).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", c.cmd, err, out)
		}
		tmp := t.TempDir()
		cmd := exec.Command(bin, c.args...)
		cmd.Env = append(os.Environ(), "TMPDIR="+tmp, "PATH="+t.TempDir())
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err == nil {
			t.Fatalf("%s without a go toolchain succeeded; want a failure", c.cmd)
		}
		if !strings.Contains(stderr.String(), "executable file not found") {
			t.Errorf("%s failed for another reason: %s", c.cmd, stderr.String())
		}
		left, err := filepath.Glob(filepath.Join(tmp, c.left))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Errorf("%s left %v behind", c.cmd, left)
		}
	}
}

func TestCLIAsimc(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	out, _ := runCLI(t, "", "./cmd/asimc", "-lang", "pascal", "testdata/counter.sim")
	if !strings.Contains(out, "program simulator(input, output);") {
		t.Errorf("pascal output wrong: %q", out[:80])
	}
	dir := t.TempDir()
	goOut := filepath.Join(dir, "sim.go")
	runCLI(t, "", "./cmd/asimc", "-lang", "go", "-cycles", "5", "-o", goOut, "testdata/counter.sim")
	data, err := os.ReadFile(goOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "package main") {
		t.Error("go output wrong")
	}
}

func TestCLIAsimnet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	out, _ := runCLI(t, "", "./cmd/asimnet", "testdata/tinycpu.sim")
	for _, want := range []string{"PARTS", "128 x 10 bit RAM", "SUMMARY"} {
		if !strings.Contains(out, want) {
			t.Errorf("asimnet missing %q", want)
		}
	}
}

func TestCLIAsimfmtIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	once, _ := runCLI(t, "", "./cmd/asimfmt", "testdata/counter.sim")
	dir := t.TempDir()
	path := filepath.Join(dir, "c.sim")
	if err := os.WriteFile(path, []byte(once), 0o644); err != nil {
		t.Fatal(err)
	}
	twice, _ := runCLI(t, "", "./cmd/asimfmt", path)
	if once != twice {
		t.Errorf("asimfmt is not idempotent:\n%s\nvs\n%s", once, twice)
	}
	if !strings.Contains(once, "A inc 4 count 1") {
		t.Errorf("canonical form wrong: %q", once)
	}
}

func TestCLIAsimfmtDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	out, _ := runCLI(t, "", "./cmd/asimfmt", "-digest", "testdata/counter.sim")
	spec, err := ParseFile("testdata/counter.sim")
	if err != nil {
		t.Fatal(err)
	}
	if want := spec.CanonicalDigest() + "\n"; out != want {
		t.Errorf("asimfmt -digest = %q, want %q", out, want)
	}
	// The digest is a function of canonical content, not formatting:
	// reformatting the file must not change it.
	canon, _ := runCLI(t, "", "./cmd/asimfmt", "testdata/counter.sim")
	dir := t.TempDir()
	path := filepath.Join(dir, "c.sim")
	if err := os.WriteFile(path, []byte(canon), 0o644); err != nil {
		t.Fatal(err)
	}
	again, _ := runCLI(t, "", "./cmd/asimfmt", "-digest", path)
	if again != out {
		t.Errorf("digest changed across canonicalization: %q vs %q", again, out)
	}
}

func TestCLIInteractiveContinuation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	out, _ := runCLI(t, "5\n0\n", "./cmd/asim", "-interactive", "-cycles", "2", "testdata/counter.sim")
	if !strings.Contains(out, "Continue to cycle (0 to quit)") {
		t.Errorf("missing continuation prompt: %q", out)
	}
	if !strings.Contains(out, "Cycle   4") || strings.Contains(out, "Cycle   5") {
		t.Errorf("continuation ran wrong cycles: %q", out)
	}
}
