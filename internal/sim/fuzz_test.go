package sim_test

// Differential fuzzing of the three compiled kernel families against
// the interpreter. The bit-parallel kernels' correctness argument is a
// static classification proof (internal/compile/bitparallel.go), and
// all three families consume one lowering, so their reference must not:
// this harness generates random-but-valid specifications, takes the
// reference from an interpreted program (an AST walker that imports
// nothing from internal/compile), runs the compiled scalar path, the
// plain lane-loop gang and the bit-parallel gang over divergent
// per-lane budgets, and fails on any difference in architectural
// hash, statistics, cycle count or runtime error. Every gang here
// retires lanes out of step, so compaction is fuzzed for free. Each
// gang path also runs warm-started: every lane resumes from the
// interpreter's snapshot at a cycle chosen per lane, so live lanes hold
// different states in every cycle and fault at different cycles and
// memories — a kernel that read one lane's column for another would
// pass the power-on gangs, whose live lanes all agree.
// `go test -fuzz=FuzzGangEquivalence` explores; the committed corpus
// under testdata/fuzz/ pins the interesting shapes as ordinary
// regression tests.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/specgen"
)

// fuzzBudgets spreads per-lane cycle budgets around base so lanes
// retire at different times; deterministic in (base, lanes).
func fuzzBudgets(base int64, lanes int) []int64 {
	budgets := make([]int64, lanes)
	for l := range budgets {
		budgets[l] = (base*int64(l+1))/int64(lanes) + int64(l%3)
	}
	return budgets
}

// warmStarts picks each lane's resume cycle, a different eighth of its
// budget per lane; deterministic in (budgets, seed).
func warmStarts(budgets []int64, seed int64) []int64 {
	starts := make([]int64, len(budgets))
	for l, b := range budgets {
		starts[l] = b * ((int64(l)*5 + seed) & 7) / 8
	}
	return starts
}

// snapshotAt is p's state after start cycles from power-on, or at the
// last cycle before its first fault when that comes sooner: restoring
// a faulted state would replay a half-committed cycle.
func snapshotAt(t *testing.T, p *core.Program, start int64) []byte {
	t.Helper()
	m := p.NewMachine(core.Options{})
	if err := m.Run(start); err != nil {
		clean := m.Cycle()
		m = p.NewMachine(core.Options{})
		if err := m.Run(clean); err != nil {
			t.Fatalf("rerun to cycle %d faulted: %v", clean, err)
		}
	}
	return m.SaveState()
}

// gangOutcomes steps one gang to completion and captures every lane as
// the scalarOutcome its stand-alone machine must equal. With warm
// snapshots, lane l first restores warm[l], and its final snapshot must
// equal, byte for byte, that of machine p restored from warm[l] and run
// to the same budget (p's own latches, not the snapshot source's).
func gangOutcomes(t *testing.T, p *core.Program, budgets []int64, chunk int64, warm [][]byte) []scalarOutcome {
	t.Helper()
	g, ok := p.NewGang(len(budgets))
	if !ok {
		t.Fatalf("%s: program not gang-capable", p.Backend())
	}
	g.Reset(budgets)
	for l, st := range warm {
		if err := g.RestoreLaneState(l, st); err != nil {
			t.Fatalf("lane %d: RestoreLaneState: %v", l, err)
		}
	}
	for g.Step(chunk) {
	}
	for l, st := range warm {
		m := p.NewMachine(core.Options{})
		if err := m.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		_ = m.Run(budgets[l] - m.Cycle()) // a fault shows in the snapshot; LaneErr is checked below
		if !bytes.Equal(g.SaveLaneState(l), m.SaveState()) {
			t.Errorf("%s warm lane %d (budget %d): SaveLaneState differs from a restored machine's SaveState", p.Backend(), l, budgets[l])
		}
	}
	out := make([]scalarOutcome, len(budgets))
	for l := range budgets {
		var errstr string
		if err := g.LaneErr(l); err != nil {
			errstr = err.Error()
		}
		out[l] = scalarOutcome{hash: g.LaneArchHash(l), cycles: g.LaneCycle(l), stats: laneStats(g, l), errstr: errstr}
	}
	return out
}

func FuzzGangEquivalence(f *testing.F) {
	// seed drives the generator; combs/mems bound the spec; cycles sets
	// the budget scale; shape selects the source (every 5th shape fuzzes
	// the bit-mix fabric's parameter space, which always takes the
	// bit-parallel path; the rest run specgen specs, which exercise
	// faults and the profitability gate's off position).
	f.Add(int64(1), int64(8), int64(2), int64(200), int64(1))
	f.Add(int64(7), int64(15), int64(4), int64(96), int64(2))
	f.Add(int64(42), int64(3), int64(1), int64(300), int64(3))
	f.Add(int64(3), int64(0), int64(0), int64(250), int64(0)) // bit-mix shape
	f.Add(int64(11), int64(0), int64(0), int64(64), int64(5)) // bit-mix shape
	f.Fuzz(func(t *testing.T, seed, combs, mems, cycles, shape int64) {
		norm := func(v, lo, span int64) int64 {
			if v < 0 {
				v = -(v + 1)
			}
			return lo + v%span
		}
		var src string
		if norm(shape, 0, 5) == 0 {
			src = machines.BitMixSpec(int(norm(seed, 2, 7)), int(norm(seed, 1, 9)))
		} else {
			rng := rand.New(rand.NewSource(seed))
			src = specgen.Generate(rng, specgen.Config{
				Combs: int(norm(combs, 1, 16)),
				Mems:  int(norm(mems, 1, 4)),
			})
		}
		spec, err := core.ParseString("fuzz", src)
		if err != nil {
			t.Fatalf("generated spec failed to parse: %v\n%s", err, src)
		}
		ref, err := core.Compile(spec, core.Interp)
		if err != nil {
			t.Fatal(err)
		}
		bit, err := core.Compile(spec, core.Compiled)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := core.Compile(spec, core.CompiledNoBitpar)
		if err != nil {
			t.Fatal(err)
		}
		budgets := fuzzBudgets(norm(cycles, 1, 400), 6)

		// Interpreter reference per budget; then the compiled scalar
		// path, and both gang paths in odd chunks so lanes retire
		// mid-chunk, from power-on and warm-started from the reference.
		// A warm lane's outcome is its cold one: it resumes the
		// reference's own run.
		warm := make([][]byte, len(budgets))
		for l, start := range warmStarts(budgets, seed) {
			warm[l] = snapshotAt(t, ref, start)
		}
		scalarOutcomes := func(p *core.Program) []scalarOutcome {
			out := make([]scalarOutcome, len(budgets))
			for l, budget := range budgets {
				out[l] = scalarRun(t, p, budget)
			}
			return out
		}
		want := scalarOutcomes(ref)
		for _, path := range []struct {
			name string
			got  []scalarOutcome
		}{
			{"scalar", scalarOutcomes(bit)},
			{"gang", gangOutcomes(t, plain, budgets, 7, nil)},
			{"bitgang", gangOutcomes(t, bit, budgets, 7, nil)},
			{"gang-warm", gangOutcomes(t, plain, budgets, 7, warm)},
			{"bitgang-warm", gangOutcomes(t, bit, budgets, 7, warm)},
		} {
			for l := range budgets {
				if !reflect.DeepEqual(path.got[l], want[l]) {
					t.Errorf("%s lane %d (budget %d): %+v, interp has %+v\nspec:\n%s",
						path.name, l, budgets[l], path.got[l], want[l], src)
				}
			}
		}
	})
}

// TestFuzzBudgetsSpread pins the budget shape the fuzz target relies
// on: budgets must differ across lanes (otherwise nothing retires
// early and compaction never runs under the fuzzer).
func TestFuzzBudgetsSpread(t *testing.T) {
	b := fuzzBudgets(300, 6)
	seen := map[int64]bool{}
	for _, v := range b {
		seen[v] = true
	}
	if len(seen) < 4 {
		t.Fatalf("budgets %v: want at least 4 distinct values", b)
	}
	if fmt.Sprint(b) != fmt.Sprint(fuzzBudgets(300, 6)) {
		t.Fatal("budgets not deterministic")
	}
}
