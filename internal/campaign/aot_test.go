package campaign

// AOT dispatch tests: a campaign routed through native worker
// subprocesses must be bit-identical to the in-process paths — same
// digests, statistics, cycle counts, runtime errors and checkpoint
// snapshots — and must degrade gracefully (threshold gating, missing
// toolchain, fallback) without changing a single result.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/aot"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/specgen"
)

func newTestAOTCache(t *testing.T) *aot.Cache {
	t.Helper()
	c, err := aot.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAOTDispatchEquivalence: one fleet, executed in-process and
// through native workers, across worker counts; every Result field
// must agree and the campaign must have actually built a worker.
func TestAOTDispatchEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	prog := sieveProgram(t, 20, core.CompiledAOT)
	runs := Fleet("sieve", prog, 9, 700)
	want := executeScalar(t, runs)
	cache := newTestAOTCache(t)
	for _, workers := range []int{1, 4} {
		eng := Engine{Workers: workers, AOT: cache, AOTThreshold: 0}
		results, err := eng.Execute(context.Background(), runs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("aot workers=%d", workers), results, want)
	}
	if cache.Builds() == 0 {
		t.Error("campaign executed without building a worker; AOT path never ran")
	}
	if cache.Fallbacks() != 0 {
		t.Errorf("clean campaign recorded %d fallbacks", cache.Fallbacks())
	}
}

// TestAOTRungOfCompiled: native execution is a rung of the compiled
// backend. A plain compiled fleet on an AOT engine builds a worker and
// matches the in-process reference; the ablation backends, whose
// in-process evaluators are what they measure, build nothing.
func TestAOTRungOfCompiled(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	cache := newTestAOTCache(t)
	eng := Engine{Workers: 2, AOT: cache, AOTThreshold: 0}
	for _, b := range []core.Backend{core.CompiledNoFold, core.CompiledNoBitpar, core.Compiled} {
		runs := Fleet("sieve", sieveProgram(t, 20, b), 6, 500)
		results, err := eng.Execute(context.Background(), runs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, string(b), results, executeScalar(t, runs))
		if b != core.Compiled && cache.Builds() != 0 {
			t.Errorf("%s fleet built a native worker", b)
		}
	}
	if cache.Builds() != 1 {
		t.Errorf("compiled fleet built %d workers, want 1", cache.Builds())
	}
	if cache.Fallbacks() != 0 {
		t.Errorf("clean campaign recorded %d fallbacks", cache.Fallbacks())
	}
}

// TestAOTDifferentialSweep: generated specifications — many of which
// fault with selector or address errors mid-run — plus mixed cycle
// budgets (including zero) must agree with the in-process reference,
// run by run.
func TestAOTDifferentialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	cache := newTestAOTCache(t)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := specgen.Generate(rng, specgen.Config{Combs: 1 + rng.Intn(10), Mems: 1 + rng.Intn(3)})
		spec, err := core.ParseString(fmt.Sprintf("rand%d", seed), src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := core.Compile(spec, core.CompiledAOT)
		if err != nil {
			t.Fatal(err)
		}
		runs := make([]Run, 6)
		for i := range runs {
			runs[i] = Run{Name: fmt.Sprintf("r%d#%d", seed, i), Program: prog, Cycles: int64(rng.Intn(300))}
		}
		want := executeScalar(t, runs)
		results, err := Engine{Workers: 2, AOT: cache, AOTThreshold: 0}.Execute(context.Background(), runs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("seed %d", seed), results, want)
	}
}

// TestAOTFaultingRuns: the deterministic selector-fault fleet from the
// gang tests, through a worker: identical error strings, cycle counts
// and digests for faulting and clean runs alike.
func TestAOTFaultingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	src := "#faulty\ninc count sel .\nA inc 4 count 1\nM count 0 inc 1 1\nS sel count 0 1\n.\n"
	spec, err := core.ParseString("faulty", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(spec, core.CompiledAOT)
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
	results, err := Engine{Workers: 2, AOT: newTestAOTCache(t), AOTThreshold: 0}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "aot faults", results, want)
}

// TestAOTThresholdGating: below the amortization threshold nothing is
// built and results come from the in-process path; at or above it the
// worker is built. The threshold is campaign-level: cycles summed over
// the program's runs.
func TestAOTThresholdGating(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	prog := sieveProgram(t, 20, core.CompiledAOT)
	runs := Fleet("sieve", prog, 4, 500) // 2000 total cycles
	want := executeScalar(t, runs)

	under := newTestAOTCache(t)
	results, err := Engine{Workers: 2, AOT: under, AOTThreshold: 2001}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "under threshold", results, want)
	if under.Builds() != 0 {
		t.Errorf("under-threshold campaign built %d workers, want 0", under.Builds())
	}

	over := newTestAOTCache(t)
	results, err = Engine{Workers: 2, AOT: over, AOTThreshold: 2000}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "at threshold", results, want)
	if over.Builds() != 1 {
		t.Errorf("at-threshold campaign built %d workers, want 1", over.Builds())
	}
}

// TestAOTToolchainAbsentFallback: a cache whose go tool does not exist
// cannot build anything; the campaign must still complete with
// in-process results, recording the fallback.
func TestAOTToolchainAbsentFallback(t *testing.T) {
	prog := sieveProgram(t, 20, core.CompiledAOT)
	runs := Fleet("sieve", prog, 5, 400)
	want := executeScalar(t, runs)
	cache := newTestAOTCache(t)
	cache.GoTool = "/nonexistent/go-toolchain"
	results, err := Engine{Workers: 2, AOT: cache, AOTThreshold: 0}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "toolchain absent", results, want)
	if cache.Fallbacks() == 0 {
		t.Error("no fallback recorded despite missing toolchain")
	}
	if cache.BuildErrors() == 0 {
		t.Error("no build error recorded despite missing toolchain")
	}
}

// TestAOTCorruptSnapshotFallback: a worker whose run snapshots do not
// restore onto the program — a binary built from edited source, planted
// at the real source's cache key — is an AOT failure like any other:
// the span re-runs in-process with results identical to the scalar
// path, and the fallback is counted once.
func TestAOTCorruptSnapshotFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	prog := sieveProgram(t, 20, core.CompiledAOT)
	runs := Fleet("sieve", prog, 4, 300) // one 4-lane span on one worker
	want := executeScalar(t, runs)

	// Every snapshot the edited worker sends starts with a stray byte.
	src := prog.AOTWorkerSource()
	edited := strings.Replace(src, "statebuf = statebuf[:0]", "statebuf = append(statebuf[:0], 0)", 1)
	if edited == src {
		t.Fatal("worker source has no snapshot buffer reset to corrupt")
	}
	bin, err := newTestAOTCache(t).Binary(edited)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	cache := newTestAOTCache(t)
	planted := filepath.Join(cache.Dir(), aot.Key(src), filepath.Base(bin))
	if err := os.MkdirAll(filepath.Dir(planted), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(planted, exe, 0o755); err != nil {
		t.Fatal(err)
	}

	results, err := Engine{Workers: 1, AOT: cache, AOTThreshold: 0}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "corrupt snapshot", results, want)
	if cache.Builds() != 0 || cache.Hits() != 1 {
		t.Errorf("builds %d, hits %d: the planted worker was not the one dispatched", cache.Builds(), cache.Hits())
	}
	if cache.Fallbacks() != 1 {
		t.Errorf("%d fallbacks recorded, want 1", cache.Fallbacks())
	}
}

// TestAOTIneligibleRunsBypass: fault-injected and warm-started runs
// never route to a worker (the worker protocol carries neither); they
// execute on an in-process gang even when the engine is AOT-enabled,
// alongside worker-executed plain runs — a custom-digest run among
// them — and a traced run on the scalar rung, with all results
// scalar-identical.
func TestAOTIneligibleRunsBypass(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	prog := sieveProgram(t, 20, core.CompiledAOT)
	var runs []Run
	for i := 0; i < 4; i++ {
		runs = append(runs, Run{Name: fmt.Sprintf("plain#%d", i), Group: "sieve", Program: prog, Cycles: 400})
	}
	warm := NewWarmStart(prog, 150)
	flip := []fault.Fault{{Component: "pc", Bit: 2, Kind: fault.Flip, From: 300}}
	runs = append(runs,
		Run{Name: "digest", Program: prog, Cycles: 400, Digest: SnapshotDigest},
		Run{Name: "warm#0", Group: "sieve", Program: prog, Cycles: 400, Warm: warm},
		Run{Name: "warm#1", Program: prog, Cycles: 350, Warm: warm},
		Run{Name: "faulted", Program: prog, Cycles: 400, Faults: flip},
		Run{Name: "warm-faulted", Program: prog, Cycles: 400, Warm: warm, Faults: flip},
		Run{Name: "traced", Group: "sieve", Program: prog, Cycles: 400, Opts: core.Options{Trace: discard{}}},
	)
	want := executeScalar(t, runs)
	log := &dispatchLog{}
	results, err := Engine{Workers: 2, AOT: newTestAOTCache(t), AOTThreshold: 0, Observe: log.hook()}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "mixed eligibility", results, want)
	for rung, want := range map[string]int{RungAOT: 5, RungLaneLoop: 4, RungScalar: 1} {
		n := 0
		for _, d := range log.byRung()[rung] {
			n += d.Runs
		}
		if n != want {
			t.Errorf("%s rung covered %d runs, want %d", rung, n, want)
		}
	}
	if sum := Summarize(results, 0); sum.Divergences != 0 || sum.Errors != 0 {
		t.Errorf("mixed-eligibility summary: %s", sum)
	}
}

// aotCk records checkpoints keyed by run and cycle.
type aotCk struct {
	mu     sync.Mutex
	states map[int]map[int64][]byte
}

func (c *aotCk) Checkpoint(run int, cycle int64, state []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.states == nil {
		c.states = map[int]map[int64][]byte{}
	}
	if c.states[run] == nil {
		c.states[run] = map[int64][]byte{}
	}
	c.states[run][cycle] = append([]byte(nil), state...)
}

// TestAOTCheckpointEquivalence: an AOT campaign emits the same
// checkpoint schedule with byte-identical snapshots as the in-process
// scalar path, including the retirement checkpoint.
func TestAOTCheckpointEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	prog := sieveProgram(t, 20, core.CompiledAOT)
	const fleet, cycles, every = 3, 900, 128
	runs := Fleet("sieve", prog, fleet, cycles)

	ref := &aotCk{}
	want, err := Engine{Workers: 1, GangSize: 1, Chunk: 64,
		Checkpoint: ref, CheckpointEvery: every}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}

	got := &aotCk{}
	results, err := Engine{Workers: 2, AOT: newTestAOTCache(t), AOTThreshold: 0,
		Checkpoint: got, CheckpointEvery: every}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "aot checkpointed", results, want)

	for run := 0; run < fleet; run++ {
		w, g := ref.states[run], got.states[run]
		if len(g) != len(w) {
			t.Errorf("run %d: %d checkpoints, want %d", run, len(g), len(w))
		}
		for cycle, ws := range w {
			gs, ok := g[cycle]
			if !ok {
				t.Errorf("run %d: missing checkpoint at cycle %d", run, cycle)
				continue
			}
			if !bytes.Equal(gs, ws) {
				t.Errorf("run %d: checkpoint at cycle %d differs from in-process snapshot", run, cycle)
			}
		}
		if _, ok := g[int64(cycles)]; !ok {
			t.Errorf("run %d: no retirement checkpoint at cycle %d", run, cycles)
		}
	}
}
