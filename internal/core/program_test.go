package core

import (
	"sync"
	"testing"

	"repro/internal/machines"
)

// TestProgramNewMachine: the Program API and the convenience wrapper
// build observationally identical machines.
func TestProgramNewMachine(t *testing.T) {
	spec, err := ParseString("counter", machines.Counter())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range Backends() {
		p, err := Compile(spec, b)
		if err != nil {
			t.Fatalf("Compile(%s): %v", b, err)
		}
		if p.Backend() != b {
			t.Errorf("%s: program accessor: backend %q", b, p.Backend())
		}
		pm := p.NewMachine(Options{})
		wm, err := NewMachine(spec, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if pm.Backend() != string(b) || wm.Backend() != string(b) {
			t.Errorf("%s: backend names %q / %q", b, pm.Backend(), wm.Backend())
		}
		if err := pm.Run(40); err != nil {
			t.Fatal(err)
		}
		if err := wm.Run(40); err != nil {
			t.Fatal(err)
		}
		if pm.Value("count") != wm.Value("count") {
			t.Errorf("%s: program machine and wrapper machine diverge", b)
		}
	}
	if _, err := Compile(spec, "bogus"); err == nil {
		t.Error("Compile with bogus backend should fail")
	}
}

// TestProgramSharedAcrossGoroutines is the evaluator statelessness
// contract under the race detector: one compiled Program per backend
// drives many machines on many goroutines simultaneously, and every
// machine must reach the state a lone machine reaches. Any mutable
// state hiding in an evaluator shows up here as a data race or a
// divergent value.
func TestProgramSharedAcrossGoroutines(t *testing.T) {
	src, err := machines.SieveSpec(16)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseString("sieve", src)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, cycles = 8, 1500
	// The alias compiled-aot stays in the matrix: a program compiled
	// through it must be as shareable as compiled's.
	for _, b := range append(Backends(), CompiledAOT) {
		b := b
		t.Run(string(b), func(t *testing.T) {
			t.Parallel()
			p, err := Compile(spec, b)
			if err != nil {
				t.Fatal(err)
			}
			lone := p.NewMachine(Options{})
			if err := lone.Run(cycles); err != nil {
				t.Fatal(err)
			}
			want := lone.Snapshot()

			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			vals := make([]map[string][]int64, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					m := p.NewMachine(Options{})
					if errs[g] = m.Run(cycles); errs[g] != nil {
						return
					}
					vals[g] = m.Snapshot()
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				for k, w := range want {
					got := vals[g][k]
					if len(got) != len(w) {
						t.Fatalf("goroutine %d: %s mis-sized", g, k)
					}
					for i := range w {
						if got[i] != w[i] {
							t.Fatalf("goroutine %d: %s[%d] = %d, lone machine has %d", g, k, i, got[i], w[i])
						}
					}
				}
			}
		})
	}
}
