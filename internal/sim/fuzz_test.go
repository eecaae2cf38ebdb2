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
// pass the power-on gangs, whose live lanes all agree. Every lane also
// carries its own random fault set — stuck-at-0, stuck-at-1 and flips
// on random bits and windows, often several on one memory — lowered to
// sim.Fault records on every path and checked, activation counts
// included, against faults applied the way an after-commit hook
// applied them before they were records (hookRun).
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
	"repro/internal/fault"
	"repro/internal/machines"
	"repro/internal/sim"
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

// laneFaults draws each lane's fault set: up to three faults of every
// model on random memories, bits and windows, often several on one
// memory, each acting only after the lane's warm-start cycle so a warm
// lane's restored prefix is fault-free. With narrow every fault hits
// bit 0, which keeps a 0/1 register 0/1, so a bit-parallel gang keeps
// its planes; otherwise most gangs step their lane-loop kernels.
func laneFaults(lay *sim.Layout, seed int64, starts, budgets []int64, narrow bool) [][]fault.Fault {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]fault.Fault, len(budgets))
	if len(lay.Mems) == 0 {
		return out
	}
	for l := range out {
		mem := lay.Mems[rng.Intn(len(lay.Mems))].Name
		for range rng.Intn(4) {
			if rng.Intn(2) == 0 {
				mem = lay.Mems[rng.Intn(len(lay.Mems))].Name
			}
			f := fault.Fault{Component: mem, Kind: fault.Kind(rng.Intn(3)), From: starts[l] + 1 + rng.Int63n(budgets[l]+1)}
			if !narrow && rng.Intn(2) == 0 {
				f.Bit = rng.Intn(12)
			}
			f.Until = f.From + rng.Int63n(budgets[l]+1)
			out[l] = append(out[l], f)
		}
	}
	return out
}

// lower lowers a lane's faults and returns the records with a zeroed
// count per record.
func lower(t *testing.T, p *core.Program, faults []fault.Fault) ([]sim.Fault, []int64) {
	t.Helper()
	recs, err := fault.Lower(p.Layout(), faults)
	if err != nil {
		t.Fatal(err)
	}
	return recs, make([]int64, len(recs))
}

// hookRun is the reference for a faulted lane: p stepped one cycle at a
// time from power-on, each fault applied after every commit through
// SetValue as the after-commit hook of internal/fault applied it before
// faults were records — keyed on the cycle counter just advanced (the
// cycle that consumes the register), a flip at From only, a stuck-at
// over From..Until, counted when it changed the value.
func hookRun(t *testing.T, p *core.Program, budget int64, faults []fault.Fault) scalarOutcome {
	t.Helper()
	m := p.NewMachine(core.Options{})
	applied := make([]int64, len(faults))
	var errstr string
	for m.Cycle() < budget {
		if err := m.Step(); err != nil {
			errstr = err.Error()
			break
		}
		for i, f := range faults {
			active := m.Cycle() >= f.From && m.Cycle() <= f.Until
			if f.Kind == fault.Flip {
				active = m.Cycle() == f.From
			}
			if !active {
				continue
			}
			v, bit := m.Value(f.Component), int64(1)<<uint(f.Bit)
			nv := v ^ bit
			switch f.Kind {
			case fault.StuckAt0:
				nv = v &^ bit
			case fault.StuckAt1:
				nv = v | bit
			}
			if nv != v {
				m.SetValue(f.Component, nv)
				applied[i]++
			}
		}
	}
	return scalarOutcome{hash: m.ArchHash(), cycles: m.Cycle(), stats: m.Stats(), errstr: errstr, activated: append([]int64(nil), applied...)}
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
// the scalarOutcome its stand-alone machine must equal. Lane l carries
// faults[l]. With warm snapshots, lane l first restores warm[l], and
// its final snapshot must equal, byte for byte, that of machine p
// restored from warm[l], given the same faults and run to the same
// budget (p's own latches, not the snapshot source's). A bit-parallel
// gang whose faults all hit bit 0 must keep its planes.
func gangOutcomes(t *testing.T, p *core.Program, budgets []int64, chunk int64, warm [][]byte, faults [][]fault.Fault) []scalarOutcome {
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
	hits, narrow := make([][]int64, len(budgets)), true
	for l, fs := range faults {
		var recs []sim.Fault
		recs, hits[l] = lower(t, p, fs)
		g.SetLaneFaults(l, recs, hits[l])
		for _, f := range fs {
			narrow = narrow && (f.Bit == 0 || f.Kind == fault.StuckAt0)
		}
	}
	if narrow && g.BitParallel() != p.BitGangCapable() {
		t.Errorf("%s: faults on bit 0 only turned the bit-parallel kernels off", p.Backend())
	}
	for g.Step(chunk) {
	}
	for l, st := range warm {
		m := p.NewMachine(core.Options{})
		if err := m.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		recs, mhits := lower(t, p, faults[l])
		m.SetFaults(recs, mhits)
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
		out[l] = scalarOutcome{hash: g.LaneArchHash(l), cycles: g.LaneCycle(l), stats: laneStats(g, l), errstr: errstr, activated: append([]int64(nil), hits[l]...)}
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

		// Interpreter reference per budget, its faults applied by the
		// hook oracle; then the compiled scalar path, and both gang
		// paths in odd chunks so lanes retire mid-chunk, from power-on
		// and warm-started from the reference. A warm lane's outcome is
		// its cold one: it resumes the reference's own run, and its
		// faults act only after its warm-start cycle.
		starts := warmStarts(budgets, seed)
		warm := make([][]byte, len(budgets))
		for l, start := range starts {
			warm[l] = snapshotAt(t, ref, start)
		}
		faults := laneFaults(ref.Layout(), seed, starts, budgets, norm(seed, 0, 2) == 0)
		want, scalar := make([]scalarOutcome, len(budgets)), make([]scalarOutcome, len(budgets))
		for l, budget := range budgets {
			want[l] = hookRun(t, ref, budget, faults[l])
			scalar[l] = scalarRun(t, bit, budget, faults[l]...)
		}
		for _, path := range []struct {
			name string
			got  []scalarOutcome
		}{
			{"scalar", scalar},
			{"gang", gangOutcomes(t, plain, budgets, 7, nil, faults)},
			{"bitgang", gangOutcomes(t, bit, budgets, 7, nil, faults)},
			{"gang-warm", gangOutcomes(t, plain, budgets, 7, warm, faults)},
			{"bitgang-warm", gangOutcomes(t, bit, budgets, 7, warm, faults)},
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
