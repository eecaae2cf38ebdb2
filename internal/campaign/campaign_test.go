package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/allocpin"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machines"
	"repro/internal/sim"
	"repro/internal/specgen"
)

func sieveProgram(t *testing.T, size int, b core.Backend) *core.Program {
	t.Helper()
	src, err := machines.SieveSpec(size)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseString("sieve", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sieveFleet(t *testing.T, n int, cycles int64) []Run {
	t.Helper()
	return Fleet("sieve", sieveProgram(t, 20, core.Compiled), n, cycles)
}

func tinyDivideProgram(t *testing.T) *core.Program {
	t.Helper()
	src, err := machines.TinyComputer(machines.TinyDivideImage(47, 5))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseString("tiny", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWorkerCountInvariance is the engine's core contract: the same
// campaign produces byte-identical results and aggregates at any
// worker count.
func TestWorkerCountInvariance(t *testing.T) {
	build := func() []Run {
		runs := sieveFleet(t, 6, 1500)
		sweep, err := Sweep(specgen.Config{Combs: 8, Mems: 2},
			[]core.Backend{core.Interp, core.Bytecode, core.Compiled}, 0, 4, 300)
		if err != nil {
			t.Fatal(err)
		}
		return append(runs, sweep...)
	}

	var want []Result
	var wantSum Summary
	for _, workers := range []int{1, 2, 8} {
		eng := Engine{Workers: workers, Chunk: 128}
		results, err := eng.Execute(context.Background(), build())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sum := Summarize(results, 0) // zero elapsed: only deterministic fields
		if workers == 1 {
			want, wantSum = results, sum
			continue
		}
		if !reflect.DeepEqual(results, want) {
			t.Errorf("workers=%d: results differ from workers=1", workers)
		}
		if !reflect.DeepEqual(sum, wantSum) {
			t.Errorf("workers=%d: summary %+v != %+v", workers, sum, wantSum)
		}
	}
	if wantSum.Divergences != 0 || wantSum.Errors != 0 {
		t.Errorf("clean fleet summary reports divergences/errors: %+v", wantSum)
	}
	if wantSum.Cycles != 6*1500+4*3*300 {
		t.Errorf("total cycles = %d", wantSum.Cycles)
	}
}

// TestCancelBeforeStart: a cancelled context runs nothing and reports
// the cancellation on every result.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs := sieveFleet(t, 4, 1000)
	results, err := Engine{Workers: 2}.Execute(ctx, runs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("run %s: err = %v", r.Name, r.Err)
		}
		if r.Cycles != 0 {
			t.Errorf("run %s executed %d cycles after cancellation", r.Name, r.Cycles)
		}
		if r.Index != i || r.Name != runs[i].Name || r.Group != runs[i].Group {
			t.Errorf("result %d mislabelled: %+v", i, r)
		}
	}
}

// TestCancelMidCampaign cancels while workers are inside long runs:
// the engine must stop promptly (chunked cancellation checks inside a
// run, direct marking of never-dispatched runs) and leave every run
// labelled with the context error.
func TestCancelMidCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	runs := sieveFleet(t, 8, 1<<40) // far beyond any real budget
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var results []Result
	var err error
	go func() {
		results, err = Engine{Workers: 2, Chunk: 64}.Execute(ctx, runs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Execute did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// No run can complete 2^40 cycles, so every result — mid-run
	// interrupted, dequeued-after-cancel, or never dispatched — must
	// carry the cancellation and its run's identity.
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("run %d: err = %v, want context.Canceled", i, r.Err)
		}
		if r.Index != i || r.Name != runs[i].Name {
			t.Errorf("result %d mislabelled: %+v", i, r)
		}
	}
}

// TestFaultCampaignParallel moves the thesis' verification workflow
// (previously fault.Campaign's serial loop) onto the engine, with
// enough workers that `go test -race` exercises the sharding.
func TestFaultCampaignParallel(t *testing.T) {
	s, ok := Lookup("tiny-divide-faults")
	if !ok {
		t.Fatal("scenario not registered")
	}
	prog := tinyDivideProgram(t)
	digest := func(m *sim.Machine) string {
		return fmt.Sprintf("q=%d r=%d", m.MemCell("memory", 32), m.MemCell("memory", 30))
	}
	faults := []fault.Fault{
		// A stuck accumulator bit across many iterations must corrupt
		// the division results.
		{Component: "ac", Bit: 0, Kind: fault.StuckAt1, From: 40, Until: 400},
		// A flip after the program has halted (spin loop) is harmless.
		{Component: "ac", Bit: 0, Kind: fault.Flip, From: 1900},
		// A stuck borrow bit ends the division immediately.
		{Component: "borrow", Bit: 0, Kind: fault.StuckAt1, From: 0, Until: 1 << 30},
	}
	wantFailed := []bool{true, false, true}
	results, golden, err := RunFaults(context.Background(), Engine{Workers: 8},
		prog, 2000, digest, faults)
	if err != nil {
		t.Fatal(err)
	}
	if golden != "q=9 r=2" {
		t.Fatalf("golden digest = %q", golden)
	}
	for i, want := range wantFailed {
		if results[i].Failed != want {
			t.Errorf("fault %d (%s): failed = %v, want %v", i, results[i].Fault, results[i].Failed, want)
		}
		if results[i].Activated == 0 {
			t.Errorf("fault %d never activated", i)
		}
	}

	// A misconfigured fault (unknown component) is a campaign setup
	// error, not a corruption finding.
	if _, _, err := RunFaults(context.Background(), Engine{}, prog, 100, digest,
		[]fault.Fault{{Component: "no-such-reg", Bit: 0, Kind: fault.StuckAt1, From: 0, Until: 10}}); err == nil {
		t.Error("invalid fault accepted as campaign outcome")
	}

	// The same campaign through the scenario registry: the golden-run
	// group makes Summarize's divergence count the corruption count.
	runs, err := s.Build(Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Engine{Workers: 8}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(res, time.Millisecond)
	if sum.Divergences == 0 || sum.FaultRuns != len(runs)-1 {
		t.Errorf("scenario summary: %+v", sum)
	}
}

// TestFaultWarmStartByteIdentical is the warm-start acceptance
// criterion: a fault campaign whose runs restore the shared
// golden-prefix snapshot must produce byte-identical Results to the
// same campaign cold-starting every run.
func TestFaultWarmStartByteIdentical(t *testing.T) {
	prog := tinyDivideProgram(t)
	digest := func(m *sim.Machine) string {
		return fmt.Sprintf("q=%d r=%d", m.MemCell("memory", 32), m.MemCell("memory", 30))
	}
	var faults []fault.Fault
	for bit := 0; bit < 6; bit++ {
		for _, cyc := range []int64{43, 155, 299} {
			faults = append(faults, fault.Fault{Component: "ac", Bit: bit, Kind: fault.Flip, From: cyc})
		}
	}
	faults = append(faults,
		fault.Fault{Component: "borrow", Bit: 0, Kind: fault.StuckAt1, From: 60, Until: 1 << 30},
		fault.Fault{Component: "pc", Bit: 3, Kind: fault.Flip, From: 200},
	)

	warm := FaultRuns("tiny-divide", prog, 2000, digest, faults)
	if warm[0].Warm == nil {
		t.Fatal("FaultRuns built no warm start")
	}
	if got, want := warm[0].Warm.cycles, int64(42); got != want {
		t.Errorf("golden prefix = %d cycles, want %d (earliest fault at 43)", got, want)
	}
	cold := FaultRuns("tiny-divide", prog, 2000, digest, faults)
	for i := range cold {
		cold[i].Warm = nil
	}

	for _, workers := range []int{1, 4} {
		eng := Engine{Workers: workers}
		warmRes, err := eng.Execute(context.Background(), warm)
		if err != nil {
			t.Fatal(err)
		}
		coldRes, err := eng.Execute(context.Background(), cold)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warmRes, coldRes) {
			for i := range warmRes {
				if !reflect.DeepEqual(warmRes[i], coldRes[i]) {
					t.Errorf("workers=%d: run %d diverges:\nwarm: %+v\ncold: %+v",
						workers, i, warmRes[i], coldRes[i])
				}
			}
		}
	}
}

// TestFaultScenarioPinned pins the tiny-divide-faults scenario's
// results to the ones the engine gave when every fault run executed as
// a hooked scalar machine: a SHA-256 over each result's index, name,
// digest, cycles, statistics, activation counts and error. Its runs
// carry faults, a shared warm start and a custom digest, and every one
// of them must still dispatch on a gang rung.
func TestFaultScenarioPinned(t *testing.T) {
	const want = "1a0e04d2300fddd343d33122d3cfcd036c62cf11518266023b8020cb118130bf"
	s, ok := Lookup("tiny-divide-faults")
	if !ok {
		t.Fatal("scenario not registered")
	}
	runs, err := s.Build(Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 34 {
		t.Fatalf("scenario built %d runs, want 34", len(runs))
	}
	log := &dispatchLog{}
	results, err := Engine{Workers: 2, Observe: log.hook()}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%d %s %s %d %v %v %v|", r.Index, r.Name, r.Digest, r.Cycles, r.Stats, r.Activated, r.Err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("fault scenario results hash %s, want %s", got, want)
	}
	for rung, ds := range log.byRung() {
		n := 0
		for _, d := range ds {
			n += d.Runs
		}
		if rung != RungLaneLoop {
			t.Errorf("%d runs dispatched on %s, want all %d on %s", n, rung, len(runs), RungLaneLoop)
		}
	}
}

// TestWarmStartPrefixChoice pins warmStartForFaults' prefix logic:
// the prefix must stop short of the earliest cycle any fault can act
// on, and collapse to nil when that leaves nothing.
func TestWarmStartPrefixChoice(t *testing.T) {
	prog := tinyDivideProgram(t)
	cases := []struct {
		name   string
		faults []fault.Fault
		cycles int64
		want   int64 // 0 means nil
	}{
		{"late-flip", []fault.Fault{{Component: "ac", Kind: fault.Flip, From: 500}}, 2000, 499},
		{"mixed", []fault.Fault{
			{Component: "ac", Kind: fault.Flip, From: 500},
			{Component: "ac", Kind: fault.StuckAt1, From: 40, Until: 400},
		}, 2000, 39},
		{"from-zero", []fault.Fault{{Component: "ac", Kind: fault.StuckAt1, From: 0, Until: 10}}, 2000, 0},
		{"from-one", []fault.Fault{{Component: "ac", Kind: fault.Flip, From: 1}}, 2000, 0},
		{"beyond-budget", []fault.Fault{{Component: "ac", Kind: fault.Flip, From: 5000}}, 2000, 2000},
		{"no-faults", nil, 2000, 2000},
	}
	for _, tc := range cases {
		ws := warmStartForFaults(prog, tc.cycles, tc.faults)
		switch {
		case tc.want == 0 && ws != nil:
			t.Errorf("%s: prefix = %d, want none", tc.name, ws.cycles)
		case tc.want != 0 && ws == nil:
			t.Errorf("%s: no warm start, want prefix %d", tc.name, tc.want)
		case tc.want != 0 && ws.cycles != tc.want:
			t.Errorf("%s: prefix = %d, want %d", tc.name, ws.cycles, tc.want)
		}
	}
}

// Allocation budgets of a steady-state campaign: a fixed number of
// allocations per campaign (the plan, the worker, the dispatch
// channel), allocsPerGang per gang job — its lanes' shared statistics
// block and digest string — and nothing per run.
const (
	allocsPerCampaign = 16
	allocsPerGang     = 2
)

// gangJobs counts the gang spans the engine plans for runs.
func gangJobs(eng Engine, runs []Run, workers int) int {
	n := 0
	for _, s := range eng.plan(runs, workers).jobs {
		if s.rung != RungScalar {
			n++
		}
	}
	return n
}

// TestPooledFleetAllocs is the compile-once allocation regression
// test: once the program's pooled gang exists, a fleet campaign costs
// its per-campaign bookkeeping plus allocsPerGang per gang job — not a
// gang or machine build, and nothing per run. The budget fails loudly
// if per-run result bookkeeping or per-campaign gang construction ever
// sneaks back into the engine.
func TestPooledFleetAllocs(t *testing.T) {
	allocpin.SkipUnderRace(t)
	prog := sieveProgram(t, 20, core.Compiled)
	const fleetSize = 64
	runs := Fleet("sieve", prog, fleetSize, 300)
	eng := Engine{Workers: 1}
	ctx := context.Background()

	allocs := allocpin.Least(func() {
		results, err := eng.Execute(ctx, runs)
		if err != nil {
			t.Fatal(err)
		}
		if results[fleetSize-1].Cycles != 300 {
			t.Fatal("fleet did not run")
		}
	})
	gangs := gangJobs(eng, runs, 1)
	if gangs < 2 {
		t.Fatalf("%d gang jobs; the fleet must gang", gangs)
	}
	// Execute also allocates the results slice, one more per campaign.
	if budget := float64(allocsPerCampaign + 1 + allocsPerGang*gangs); allocs > budget {
		t.Errorf("pooled fleet allocates %.0f objects per campaign of %d gang jobs, want <= %.0f", allocs, gangs, budget)
	}
}

// TestSteadyStateBurstsAllocPerGang: a caller that passes its results
// slice back campaign after campaign — the serving layer's steady
// state — pays only per gang job. Doubling the fleet from 256 to 512
// runs may add allocsPerGang per extra gang job and nothing per extra
// run: a per-run allocation would add hundreds.
func TestSteadyStateBurstsAllocPerGang(t *testing.T) {
	allocpin.SkipUnderRace(t)
	prog := sieveProgram(t, 20, core.Compiled)
	eng := Engine{Workers: 1}
	ctx := context.Background()
	measure := func(n int) (float64, int) {
		runs := Fleet("sieve", prog, n, 300)
		var results []Result
		bursts := 0
		allocs := allocpin.Least(func() {
			var err error
			results, err = eng.ExecuteBursts(ctx, runs, results, func([]Result) { bursts++ })
			if err != nil || results[n-1].Cycles != 300 {
				t.Fatalf("fleet of %d did not run: %v", n, err)
			}
		})
		if bursts == 0 {
			t.Fatal("no burst delivered")
		}
		return allocs, gangJobs(eng, runs, 1)
	}
	small, smallGangs := measure(256)
	large, largeGangs := measure(512)
	if largeGangs <= smallGangs {
		t.Fatalf("gang jobs: %d for 512 runs, %d for 256", largeGangs, smallGangs)
	}
	if small > allocsPerCampaign+float64(allocsPerGang*smallGangs) {
		t.Errorf("256 runs in %d gang jobs allocate %.0f objects, want <= %d", smallGangs, small, allocsPerCampaign+allocsPerGang*smallGangs)
	}
	if extra, budget := large-small, float64(allocsPerGang*(largeGangs-smallGangs)); extra > budget {
		t.Errorf("512 runs allocate %.0f objects more than 256 (%d more gang jobs), want <= %.0f: a per-run allocation is back", extra, largeGangs-smallGangs, budget)
	}
}

// TestScenarioRegistry builds and runs a small instance of every
// registered scenario.
func TestScenarioRegistry(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("scenarios = %v", names)
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("bogus lookup succeeded")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			s, ok := Lookup(name)
			if !ok {
				t.Fatal("lookup failed")
			}
			runs, err := s.Build(Params{N: 2, Cycles: 200, Size: 10})
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) == 0 {
				t.Fatal("empty campaign")
			}
			results, err := Engine{Workers: 4}.Execute(context.Background(), runs)
			if err != nil {
				t.Fatal(err)
			}
			sum := Summarize(results, 0)
			if sum.Errors != 0 {
				for _, r := range results {
					if r.Err != nil {
						t.Errorf("run %s: %v", r.Name, r.Err)
					}
				}
			}
		})
	}
}

// TestSnapshotDigest: distinct state must digest differently, equal
// state identically — for both the name-keyed SnapshotDigest and the
// engine's default architectural digest.
func TestSnapshotDigest(t *testing.T) {
	spec, err := core.ParseString("counter", machines.Counter())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	a := prog.NewMachine(core.Options{})
	b := prog.NewMachine(core.Options{})
	if SnapshotDigest(a) != SnapshotDigest(b) {
		t.Error("fresh machines digest differently")
	}
	if archDigest(a) != archDigest(b) {
		t.Error("fresh machines arch-digest differently")
	}
	if err := a.Run(3); err != nil {
		t.Fatal(err)
	}
	if SnapshotDigest(a) == SnapshotDigest(b) {
		t.Error("diverged machines digest identically")
	}
	if archDigest(a) == archDigest(b) {
		t.Error("diverged machines arch-digest identically")
	}
}

// TestEngineEmptyAndDefaults covers the engine's edge configuration.
func TestEngineEmptyAndDefaults(t *testing.T) {
	results, err := Engine{}.Execute(context.Background(), nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty campaign: %v, %v", results, err)
	}
	// A run without a program is a per-run outcome, not a campaign
	// abort.
	runs := []Run{{Name: "broken"}}
	results, err = Engine{}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("missing program not recorded as run error")
	}
}
