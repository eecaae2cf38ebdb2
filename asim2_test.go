package asim2

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machines"
)

const counterSrc = `# counter
count* inc .
A inc 4 count 1
M count 0 inc 1 1
.
`

func TestFacadeRoundTrip(t *testing.T) {
	spec, err := ParseString("counter", counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(spec, Compiled, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(5); err != nil {
		t.Fatal(err)
	}
	if m.Value("count") != 5 {
		t.Errorf("count = %d", m.Value("count"))
	}
}

func TestFacadeParseVariants(t *testing.T) {
	if _, err := Parse("r", strings.NewReader(counterSrc)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "c.sim")
	if err := os.WriteFile(path, []byte(counterSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.AST.File != path {
		t.Errorf("file = %q", spec.AST.File)
	}
}

func TestFacadeBackends(t *testing.T) {
	if len(Backends()) != 6 {
		t.Errorf("backends = %v", Backends())
	}
	spec, err := ParseString("counter", counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range Backends() {
		m, err := NewMachine(spec, b, Options{})
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if err := m.Run(3); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if m.Value("count") != 3 {
			t.Errorf("%s: count = %d", b, m.Value("count"))
		}
	}
}

func TestFacadeRuntimeErrorType(t *testing.T) {
	spec, err := ParseString("bad", "#b\nm five .\nA five 1 0 5\nM m five 0 0 2\n.")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(spec, Compiled, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(1)
	if _, ok := err.(*RuntimeError); !ok {
		t.Errorf("error type %T: %v", err, err)
	}
}

// TestTestdataFresh regenerates the canonical specification set
// in-process and diffs it against the committed testdata/ files, so
// they can never go stale relative to the internal/machines builders.
// `go generate .` rewrites them.
func TestTestdataFresh(t *testing.T) {
	specs, err := machines.Testdata()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for name, want := range specs {
		path := filepath.Join("testdata", name)
		seen[path] = true
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s missing (run `go generate .`): %v", path, err)
			continue
		}
		if string(got) != want {
			t.Errorf("%s is stale relative to internal/machines (run `go generate .`)", path)
		}
	}
	paths, err := filepath.Glob("testdata/*.sim")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if !seen[path] {
			t.Errorf("%s is not produced by tools/gentestdata", path)
		}
	}
}

// TestTestdataSpecs keeps the checked-in example specifications
// parseable and runnable.
func TestTestdataSpecs(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no testdata specs found")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			spec, err := ParseFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(spec, Compiled, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(spec.DefaultCycles(50)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
