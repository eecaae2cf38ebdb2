package campaign

// Gang-aware dispatch: Engine.Execute must produce bit-identical
// []Result whether runs execute as wide gangs, as one-lane gangs, or as
// any mix — across gang widths, mixed per-run cycle budgets, runs that
// fault out mid-gang, and fleets mixing gangable runs with runs no
// gang can carry (other backends, faults that do not lower, no
// program) — and each equal to one sim.Machine per run.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machines"
	"repro/internal/sim"
	"repro/internal/specgen"
)

func bitMixProgram(t *testing.T) *core.Program {
	t.Helper()
	spec, err := core.ParseString("bitmix", machines.BitMixSpec(8, 12))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// divergentFleet is 24 runs of one program whose budgets spread from 20
// to 2090 cycles: most lanes of any gang retire long before its last.
func divergentFleet(p *core.Program) []Run {
	runs := make([]Run, 24)
	for i := range runs {
		runs[i] = Run{Name: fmt.Sprintf("m%d", i), Program: p, Cycles: int64(20 + 90*i)}
	}
	return runs
}

// requireSameResults compares two result sets field by field, ignoring
// nothing: digests, statistics, cycle counts and error strings all
// participate.
func requireSameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		gerr, werr := "", ""
		if g.Err != nil {
			gerr = g.Err.Error()
		}
		if w.Err != nil {
			werr = w.Err.Error()
		}
		if gerr != werr {
			t.Errorf("%s: run %d (%s): err %q, want %q", label, i, w.Name, gerr, werr)
		}
		g.Err, w.Err = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: run %d (%s):\n got %+v\nwant %+v", label, i, w.Name, g, w)
		}
	}
}

// hashHex renders a 64-bit state hash as the engine's 16-digit hex
// digest string.
func hashHex(h uint64) string { return string(appendHex(nil, h)) }

// CellsDigest is a custom Run.Digest that covers the program's whole
// architectural state: every component's Value and every cell of every
// memory, read through sim.Cells.
func CellsDigest(p *core.Program) func(sim.Cells) string {
	lay := p.Layout()
	return func(c sim.Cells) string {
		h := fnv.New64a()
		for _, name := range lay.Names {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(c.Value(name))))
		}
		for _, mem := range lay.Mems {
			for i := range mem.Size {
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(c.MemCell(mem.Name, i))))
			}
		}
		return hashHex(h.Sum64())
	}
}

// executeScalar is the reference the engine must match bit for bit:
// each run on a sim.Machine of its own, sharing no executor with the
// engine — the warm start restored, the faults lowered and set, the
// budget run, then the architectural hash or the run's custom Digest.
// A run without a program, or whose faults do not lower, has a Result
// that carries only the error.
func executeScalar(t *testing.T, runs []Run) []Result {
	t.Helper()
	results := make([]Result, len(runs))
	for i, r := range runs {
		res := &results[i]
		*res = Result{Index: i, Name: r.Name, Group: r.Group}
		if r.Program == nil {
			res.Err = errors.New("campaign: run has no program")
			continue
		}
		recs, err := fault.Lower(r.Program.Layout(), r.Faults)
		if err != nil {
			res.Err = err
			continue
		}
		m := r.Program.NewMachine(core.Options{})
		if st := r.warmState(); st != nil {
			if err := m.RestoreState(st); err != nil {
				t.Fatal(err)
			}
		}
		if len(recs) > 0 {
			res.Activated = make([]int64, len(recs))
			m.SetFaults(recs, res.Activated)
		}
		res.Err = m.Run(r.Cycles - m.Cycle())
		res.Cycles, res.Stats = m.Cycle(), m.Stats()
		if r.Digest != nil {
			res.Digest = r.Digest(m)
		} else {
			res.Digest = hashHex(m.ArchHash())
		}
	}
	return results
}

// TestGangDispatchEquivalence: every dispatch shape, over a lockstep
// lane-loop fleet, a bit-parallel fleet whose lanes retire far out of
// step (compaction at every chunk boundary), and a program without
// memories, whose statistics count no memory operations on any path.
func TestGangDispatchEquivalence(t *testing.T) {
	spec, err := core.ParseString("memoryless", "# no memories\na b .\nA a 4 1 1\nA b 4 a 1\n.\n")
	if err != nil {
		t.Fatal(err)
	}
	memoryless, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	for name, runs := range map[string][]Run{
		"sieve":      Fleet("sieve", sieveProgram(t, 20, core.Compiled), 13, 700),
		"divergent":  divergentFleet(bitMixProgram(t)),
		"memoryless": Fleet("memoryless", memoryless, 5, 30),
	} {
		want := executeScalar(t, runs)
		for _, gs := range []int{0, 2, 3, 13, 64} {
			for _, workers := range []int{1, 4} {
				eng := Engine{Workers: workers, GangSize: gs, Chunk: 64}
				results, err := eng.Execute(context.Background(), runs)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s gang=%d workers=%d", name, gs, workers)
				requireSameResults(t, label, results, want)
				if sum := Summarize(results, 0); sum.Divergences != 0 || sum.Errors != 0 {
					t.Errorf("%s: %s", label, sum)
				}
			}
		}
	}
}

// TestGangDispatchMixedCycles: lanes of one gang halt at different
// cycles; digests and statistics still match the scalar path per run.
func TestGangDispatchMixedCycles(t *testing.T) {
	prog := sieveProgram(t, 20, core.Compiled)
	rng := rand.New(rand.NewSource(7))
	runs := make([]Run, 24)
	for i := range runs {
		runs[i] = Run{
			Name:    fmt.Sprintf("mixed#%d", i),
			Program: prog,
			Cycles:  int64(rng.Intn(900)), // includes possible zero-cycle runs
		}
	}
	want := executeScalar(t, runs)
	results, err := Engine{Workers: 2, GangSize: 8}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "mixed cycles", results, want)
}

// TestGangDispatchFaultingRuns: runs that hit a runtime error report
// the identical error, cycle count and final digest through the gang
// path — both a deterministic selector fault and whatever the
// generated-spec sweep produces.
func TestGangDispatchFaultingRuns(t *testing.T) {
	// The memory counts up each cycle; sel faults once the count
	// exceeds its two cases. Runs with Cycles >= 3 fault, shorter runs
	// halt cleanly, so one gang mixes both outcomes.
	src := "#faulty\ninc count sel .\nA inc 4 count 1\nM count 0 inc 1 1\nS sel count 0 1\n.\n"
	spec, err := core.ParseString("faulty", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]Run, 9)
	for i := range runs {
		runs[i] = Run{Name: fmt.Sprintf("faulty#%d", i), Program: prog, Cycles: int64(i)}
	}
	want := executeScalar(t, runs)
	faulted := 0
	for _, r := range want {
		if r.Err != nil {
			faulted++
		}
	}
	if faulted == 0 || faulted == len(want) {
		t.Fatalf("want a mix of faulting and clean runs, got %d/%d faulted", faulted, len(want))
	}
	results, err := Engine{Workers: 3, GangSize: 4}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "deterministic fault", results, want)

	// Runs that cannot execute: no program, and a fault that does not
	// lower. Their results carry the error alone — no digest, no
	// statistics — beside runs that do execute.
	sieve := sieveProgram(t, 20, core.Compiled)
	unrunnable := []Run{
		{Name: "ok", Group: "g", Program: sieve, Cycles: 50},
		{Name: "no-program", Group: "g", Cycles: 50},
		{Name: "bad-fault", Group: "g", Program: sieve, Cycles: 50,
			Faults: []fault.Fault{{Component: "no-such-memory", Kind: fault.Flip, From: 1}}},
	}
	uwant := executeScalar(t, unrunnable)
	if uwant[1].Err == nil || uwant[2].Err == nil {
		t.Fatalf("reference ran unrunnable runs: %+v", uwant)
	}
	for _, gs := range []int{0, 1} {
		ures, err := Engine{Workers: 1, GangSize: gs}.Execute(context.Background(), unrunnable)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("unrunnable gang=%d", gs), ures, uwant)
	}

	// Generated specs: whatever outcome each seed produces (many fault
	// with selector or address errors), gang and scalar must agree.
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gsrc := specgen.Generate(rng, specgen.Config{Combs: 1 + rng.Intn(12), Mems: 1 + rng.Intn(3)})
		gspec, err := core.ParseString(fmt.Sprintf("rand%d", seed), gsrc)
		if err != nil {
			t.Fatal(err)
		}
		gprog, err := core.Compile(gspec, core.Compiled)
		if err != nil {
			t.Fatal(err)
		}
		gruns := Fleet(fmt.Sprintf("rand%d", seed), gprog, 5, 96)
		gwant := executeScalar(t, gruns)
		gres, err := Engine{Workers: 2, GangSize: 5}.Execute(context.Background(), gruns)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("seed %d", seed), gres, gwant)
	}
}

// TestGangDispatchMixedEligibility: a campaign mixing gangable runs
// with runs no gang can carry — interp-backend runs, an undersized
// remainder — still produces scalar-identical results, and the
// ineligible runs complete as one-lane gangs.
func TestGangDispatchMixedEligibility(t *testing.T) {
	compiled := sieveProgram(t, 20, core.Compiled)
	interp := sieveProgram(t, 20, core.Interp)
	var runs []Run
	// 5 gangable + interp runs interleaved; gang width 4 leaves a
	// gangable remainder of 1 to dispatch alone.
	for i := 0; i < 5; i++ {
		runs = append(runs, Run{Name: fmt.Sprintf("gang#%d", i), Group: "sieve", Program: compiled, Cycles: 400})
		runs = append(runs, Run{Name: fmt.Sprintf("interp#%d", i), Group: "sieve", Program: interp, Cycles: 400})
	}
	want := executeScalar(t, runs)
	results, err := Engine{Workers: 2, GangSize: 4}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "mixed eligibility", results, want)
	// All backends and paths agree on the sieve: one comparison group,
	// zero divergences.
	if sum := Summarize(results, 0); sum.Divergences != 0 || sum.Errors != 0 {
		t.Errorf("mixed-eligibility summary: %s", sum)
	}
}

// TestGangDispatchCancellation: cancelling mid-campaign marks
// unfinished gang lanes with the context error and keeps finished
// results, like the scalar path.
func TestGangDispatchCancellation(t *testing.T) {
	prog := sieveProgram(t, 20, core.Compiled)
	const fleetSize = 40
	runs := Fleet("sieve", prog, fleetSize, 1<<40) // effectively unbounded
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := Engine{Workers: 2, GangSize: 8, Chunk: 64}.Execute(ctx, runs)
	if err == nil {
		t.Fatal("Execute returned nil error after cancellation")
	}
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("run %d finished an unbounded budget; want cancellation error", i)
		}
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
	}

	// And a mid-flight cancellation: some runs may finish, the rest
	// carry the context error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	short := Fleet("sieve", prog, fleetSize, 1<<40)
	done := make(chan []Result, 1)
	go func() {
		res, _ := Engine{Workers: 2, GangSize: 8, Chunk: 64}.Execute(ctx2, short)
		done <- res
	}()
	cancel2()
	for i, r := range <-done {
		if r.Err == nil && r.Cycles != short[i].Cycles {
			t.Errorf("run %d: no error but only %d cycles executed", i, r.Cycles)
		}
	}
}

// TestWidthForDefaults: pinned GangSize wins outright; otherwise the
// width is the capability default — one plane word for bit-parallel
// programs, DefaultGangSize for lane-loop gangs.
func TestWidthForDefaults(t *testing.T) {
	sieve := sieveProgram(t, 20, core.Compiled)
	bitmix := bitMixProgram(t)
	if bitmix.BitGangCapable() == sieve.BitGangCapable() {
		t.Fatal("fixture programs must differ in bit-gang capability")
	}
	if w := (Engine{GangSize: 8}).laneWidth(bitmix); w != 8 {
		t.Errorf("pinned GangSize: width %d, want 8", w)
	}
	if w := (Engine{}).laneWidth(sieve); w != DefaultGangSize {
		t.Errorf("lane-loop program: width %d, want %d", w, DefaultGangSize)
	}
	if w := (Engine{}).laneWidth(bitmix); w != DefaultBitGangSize {
		t.Errorf("bit-parallel program: width %d, want %d", w, DefaultBitGangSize)
	}
}

// planShape renders a plan as one "<runs> <rung>" entry per dispatch
// unit, after checking the units tile the run list exactly once and
// that plan's counting pass sized its unit list exactly.
func planShape(t *testing.T, eng Engine, runs []Run, workers int) []string {
	t.Helper()
	p := eng.plan(runs, workers)
	seen := make([]bool, len(runs))
	next := 0
	shape := make([]string, 0, len(p.jobs))
	for _, s := range p.jobs {
		if s.lo != next || s.hi <= s.lo {
			t.Fatalf("span %+v does not continue plan order at %d", s, next)
		}
		next = s.hi
		for _, i := range p.order[s.lo:s.hi] {
			if seen[i] {
				t.Fatalf("run %d planned twice", i)
			}
			seen[i] = true
		}
		shape = append(shape, fmt.Sprintf("%d %s", s.hi-s.lo, s.rung))
	}
	if next != len(runs) {
		t.Fatalf("plan covers %d of %d runs", next, len(runs))
	}
	if cap(p.jobs) != len(p.jobs) {
		t.Fatalf("plan counted %d dispatch units, made %d", cap(p.jobs), len(p.jobs))
	}
	return shape
}

// TestPlanShapePure: the dispatch shape — every unit's width and rung
// — is a function of the run list, the worker count and the Engine's
// configuration, and of nothing the engine has executed: the same
// long-lived Engine value plans every case identically before and
// after running a heavily divergent fleet three times.
func TestPlanShapePure(t *testing.T) {
	sieve := sieveProgram(t, 20, core.Compiled)
	interp := sieveProgram(t, 20, core.Interp)
	native := sieveProgram(t, 20, core.CompiledAOT)
	bitmix := bitMixProgram(t)
	cache := newTestAOTCache(t)
	mixed := Fleet("sieve", sieve, 33, 100)
	mixed = append(mixed, Fleet("bitmix", bitmix, 65, 100)...)
	mixed = append(mixed, Fleet("interp", interp, 2, 100)...)

	for _, tc := range []struct {
		name    string
		eng     Engine
		runs    []Run
		workers int
		want    []string
	}{
		{"lane-loop", Engine{}, Fleet("f", sieve, 70, 100), 1,
			[]string{"32 lane-loop", "32 lane-loop", "6 lane-loop"}},
		{"bit-plane", Engine{}, Fleet("f", bitmix, 130, 100), 1,
			[]string{"64 bit-parallel", "64 bit-parallel", "2 bit-parallel"}},
		{"pinned", Engine{GangSize: 8}, Fleet("f", bitmix, 17, 100), 1,
			[]string{"8 bit-parallel", "8 bit-parallel", "1 scalar"}},
		{"pinned wider than the default", Engine{GangSize: 48}, Fleet("f", sieve, 50, 100), 1,
			[]string{"48 lane-loop", "2 lane-loop"}},
		{"ganging off", Engine{GangSize: 1}, Fleet("f", sieve, 3, 100), 1,
			[]string{"1 scalar", "1 scalar", "1 scalar"}},
		{"capped by runs per worker", Engine{}, Fleet("f", bitmix, 128, 100), 4,
			[]string{"32 bit-parallel", "32 bit-parallel", "32 bit-parallel", "32 bit-parallel"}},
		{"cap leaves an odd run", Engine{}, Fleet("f", sieve, 7, 100), 2,
			[]string{"4 lane-loop", "3 lane-loop"}},
		{"one run per worker", Engine{}, Fleet("f", sieve, 4, 100), 4,
			[]string{"1 scalar", "1 scalar", "1 scalar", "1 scalar"}},
		{"backend cannot gang", Engine{}, Fleet("f", interp, 3, 100), 1,
			[]string{"1 scalar", "1 scalar", "1 scalar"}},
		{"native worker", Engine{AOT: cache}, Fleet("f", native, 33, 100), 1,
			[]string{"32 aot", "1 aot"}},
		{"native worker below threshold", Engine{AOT: cache, AOTThreshold: 1 << 40}, Fleet("f", native, 33, 100), 1,
			[]string{"32 lane-loop", "1 scalar"}},
		// Gangs first, program by program in order of first appearance;
		// then the runs no gang can carry, then the gang remainders.
		{"mixed programs", Engine{}, mixed, 1,
			[]string{"32 lane-loop", "64 bit-parallel", "1 scalar", "1 scalar", "1 scalar", "1 scalar"}},
	} {
		before := planShape(t, tc.eng, tc.runs, tc.workers)
		if !reflect.DeepEqual(before, tc.want) {
			t.Errorf("%s: plan = %q, want %q", tc.name, before, tc.want)
		}
		for round := 0; round < 3; round++ {
			if _, err := tc.eng.Execute(context.Background(), divergentFleet(bitmix)); err != nil {
				t.Fatal(err)
			}
		}
		if after := planShape(t, tc.eng, tc.runs, tc.workers); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: plan after three divergent campaigns = %q, before %q", tc.name, after, before)
		}
	}
}

// planWidths returns the job widths a plan would dispatch.
func planWidths(eng Engine, runs []Run, workers int) []int {
	p := eng.plan(runs, workers)
	widths := make([]int, 0, len(p.jobs))
	for _, s := range p.jobs {
		widths = append(widths, s.hi-s.lo)
	}
	return widths
}

// TestGangRemainderScalar pins the planner: a fleet one larger than
// the gang width dispatches one full gang and one scalar run, and an
// ineligible-backend fleet dispatches all-scalar.
func TestGangRemainderScalar(t *testing.T) {
	prog := sieveProgram(t, 20, core.Compiled)
	eng := Engine{GangSize: 8}
	widths := planWidths(eng, Fleet("sieve", prog, 9, 100), 1)
	if !reflect.DeepEqual(widths, []int{8, 1}) {
		t.Errorf("plan widths = %v, want [8 1]", widths)
	}
	interp := sieveProgram(t, 20, core.Interp)
	for _, w := range planWidths(eng, Fleet("sieve", interp, 9, 100), 1) {
		if w != 1 {
			t.Fatalf("interp fleet planned a gang of %d; backend cannot gang", w)
		}
	}
}

// TestGangPlanKeepsWorkersBusy pins the parallelism-first rule: the
// planner narrows gangs below GangSize rather than leave workers
// idle, and disables them entirely when there is one run per worker.
func TestGangPlanKeepsWorkersBusy(t *testing.T) {
	prog := sieveProgram(t, 20, core.Compiled)
	runs := Fleet("sieve", prog, 16, 100)
	// One worker: a full-width gang.
	if widths := planWidths(Engine{}, runs, 1); !reflect.DeepEqual(widths, []int{16}) {
		t.Errorf("1 worker: plan widths = %v, want [16]", widths)
	}
	// Eight workers: eight two-lane gangs, every worker busy.
	if widths := planWidths(Engine{}, runs, 8); !reflect.DeepEqual(widths, []int{2, 2, 2, 2, 2, 2, 2, 2}) {
		t.Errorf("8 workers: plan widths = %v, want eight 2s", widths)
	}
	// Sixteen workers: one run each — gangs would idle nobody but also
	// amortize nothing across workers; all-scalar.
	for _, w := range planWidths(Engine{}, runs, 16) {
		if w != 1 {
			t.Fatalf("16 workers: planned a gang of %d, want all-scalar", w)
		}
	}
	// The results stay bit-identical whichever shape the planner picks.
	want := executeScalar(t, runs)
	for _, workers := range []int{1, 3, 8, 16} {
		results, err := Engine{Workers: workers}.Execute(context.Background(), runs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("workers=%d", workers), results, want)
	}
}
