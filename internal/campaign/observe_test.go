package campaign

// Engine.Observe: every dispatch unit reports exactly one Dispatch
// record whose rung matches the path that actually executed it, the
// records account for every run and every cycle, the context given to
// ExecuteStream reaches the hook (that's how trace ids ride along),
// and observing never changes results.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

// dispatchLog collects Dispatch records across worker goroutines.
type dispatchLog struct {
	mu sync.Mutex
	ds []Dispatch
}

func (l *dispatchLog) hook() func(context.Context, Dispatch) {
	return func(_ context.Context, d Dispatch) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.ds = append(l.ds, d)
	}
}

func (l *dispatchLog) byRung() map[string][]Dispatch {
	out := make(map[string][]Dispatch)
	for _, d := range l.ds {
		out[d.Rung] = append(out[d.Rung], d)
	}
	return out
}

func (l *dispatchLog) totals() (runs int, cycles int64) {
	for _, d := range l.ds {
		runs += d.Runs
		cycles += d.Cycles
	}
	return
}

// TestObserveRungsAndTotals: a mixed campaign — a lane-loop sieve
// fleet, a bit-parallel bitmix fleet, and an interp run, whose backend
// has no gang kernels, alone — reports all three in-process rungs, with
// runs and cycles summing exactly to the campaign's books. The sieve
// fleet includes a warm-started run, a faulted run, a warm faulted run
// and a custom-digest run: each is a gang lane, with results equal to
// the scalar path's.
func TestObserveRungsAndTotals(t *testing.T) {
	sieve := sieveProgram(t, 20, core.Compiled)
	bitmix := bitMixProgram(t)
	if !bitmix.BitGangCapable() || sieve.BitGangCapable() {
		t.Fatal("fixture capabilities shifted; rung assertions below are void")
	}
	runs := Fleet("sieve", sieve, 6, 500)
	warm := NewWarmStart(sieve, 200)
	pcFlip := []fault.Fault{{Component: "pc", Bit: 1, Kind: fault.Flip, From: 260}}
	runs = append(runs,
		Run{Name: "warm", Program: sieve, Cycles: 500, Warm: warm},
		Run{Name: "faulted", Program: sieve, Cycles: 500, Faults: pcFlip},
		Run{Name: "warm-faulted", Program: sieve, Cycles: 500, Warm: warm, Faults: pcFlip},
		Run{Name: "digest", Program: sieve, Cycles: 500, Digest: CellsDigest(sieve)},
	)
	runs = append(runs, Fleet("bitmix", bitmix, 8, 400)...)
	runs = append(runs, Run{Name: "interp", Program: sieveProgram(t, 20, core.Interp), Cycles: 300})

	log := &dispatchLog{}
	eng := Engine{Workers: 2, GangSize: 4, Observe: log.hook()}
	results, err := eng.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}

	gotRuns, gotCycles := log.totals()
	if gotRuns != len(runs) {
		t.Errorf("dispatches account for %d runs, want %d", gotRuns, len(runs))
	}
	var wantCycles int64
	for _, r := range results {
		wantCycles += r.Cycles
	}
	if gotCycles != wantCycles {
		t.Errorf("dispatches account for %d cycles, campaign executed %d", gotCycles, wantCycles)
	}

	byRung := log.byRung()
	if len(byRung[RungAOT]) != 0 {
		t.Errorf("AOT rung reported without an AOT cache: %+v", byRung[RungAOT])
	}
	laneRuns := 0
	for _, d := range byRung[RungLaneLoop] {
		laneRuns += d.Runs
		if d.Runs < 2 {
			t.Errorf("lane-loop dispatch with %d lanes; gangs need at least 2", d.Runs)
		}
	}
	if laneRuns != 10 {
		t.Errorf("lane-loop rung covered %d runs, want the 6 sieve fleet members and the 4 warm, faulted or digested sieve runs", laneRuns)
	}
	requireSameResults(t, "observed", results, executeScalar(t, runs))
	if a := results[7].Activated; len(a) != 1 || a[0] != 1 {
		t.Errorf("faulted lane activations %v, want [1]", a)
	}
	bitRuns := 0
	for _, d := range byRung[RungBitParallel] {
		bitRuns += d.Runs
	}
	if bitRuns != 8 {
		t.Errorf("bit-parallel rung covered %d runs, want the 8 bitmix fleet members", bitRuns)
	}
	scalarRuns := 0
	for _, d := range byRung[RungScalar] {
		scalarRuns += d.Runs
		if d.Runs != 1 {
			t.Errorf("scalar dispatch with %d runs, want 1", d.Runs)
		}
	}
	if scalarRuns != 1 {
		t.Errorf("scalar rung covered %d runs, want the 1 interp run", scalarRuns)
	}
	for _, d := range log.ds {
		if d.Start.IsZero() || d.Dur < 0 {
			t.Errorf("dispatch %+v has no timing", d)
		}
	}
}

// TestObserveContextCarries: the context handed to ExecuteStream is
// the one the hook sees — a trace id stored in it survives the trip
// through the worker pool.
func TestObserveContextCarries(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "trace-77")
	seen := make(chan string, 64)
	eng := Engine{Workers: 2, Observe: func(ctx context.Context, _ Dispatch) {
		v, _ := ctx.Value(key{}).(string)
		seen <- v
	}}
	if _, err := eng.Execute(ctx, sieveFleet(t, 3, 200)); err != nil {
		t.Fatal(err)
	}
	close(seen)
	n := 0
	for v := range seen {
		n++
		if v != "trace-77" {
			t.Fatalf("hook saw context value %q, want trace-77", v)
		}
	}
	if n == 0 {
		t.Fatal("hook never ran")
	}
}

// TestObserveDoesNotChangeResults: the observed campaign is
// byte-identical to the unobserved one.
func TestObserveDoesNotChangeResults(t *testing.T) {
	build := func() []Run { return sieveFleet(t, 6, 800) }
	want, err := Engine{Workers: 2}.Execute(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	log := &dispatchLog{}
	got, err := Engine{Workers: 2, Observe: log.hook()}.Execute(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("observing the campaign changed its results")
	}
	if len(log.ds) == 0 {
		t.Error("hook never ran")
	}
}

// TestObserveBooksExecutedRung: a dispatch books the rung that stepped
// it, not the one planned. A bit-3 flip can move a 0/1 register outside
// {0, 1}, so one such run turns its gang's planes off: the 4-lane
// bit-mix gang, planned bit-parallel, steps lane-loop kernels and books
// lane-loop.
func TestObserveBooksExecutedRung(t *testing.T) {
	bitmix := bitMixProgram(t)
	runs := Fleet("bitmix", bitmix, 4, 300)
	runs[2].Faults = []fault.Fault{{Component: "r0", Bit: 3, Kind: fault.Flip, From: 100}}
	eng := Engine{Workers: 1, GangSize: 4}
	if shape := planShape(t, eng, runs, 1); !reflect.DeepEqual(shape, []string{"4 bit-parallel"}) {
		t.Fatalf("plan = %q, want one 4-lane bit-parallel gang", shape)
	}
	log := &dispatchLog{}
	eng.Observe = log.hook()
	results, err := eng.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.ds) != 1 || log.ds[0].Rung != RungLaneLoop || log.ds[0].Runs != 4 {
		t.Errorf("dispatches %+v, want one 4-run %s dispatch", log.ds, RungLaneLoop)
	}
	requireSameResults(t, "planes off", results, executeScalar(t, runs))
}

// TestObserveAOTRung: with an AOT cache attached and the threshold
// open, eligible spans report the aot rung — and still account for
// every run and cycle.
func TestObserveAOTRung(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	prog := sieveProgram(t, 20, core.CompiledAOT)
	runs := Fleet("sieve", prog, 9, 700)
	log := &dispatchLog{}
	cache := newTestAOTCache(t)
	eng := Engine{Workers: 2, AOT: cache, AOTThreshold: 0, Observe: log.hook()}
	results, err := eng.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	byRung := log.byRung()
	aotRuns := 0
	for _, d := range byRung[RungAOT] {
		aotRuns += d.Runs
	}
	if aotRuns != len(runs) {
		t.Errorf("aot rung covered %d runs, want %d", aotRuns, len(runs))
	}
	gotRuns, gotCycles := log.totals()
	var wantCycles int64
	for _, r := range results {
		wantCycles += r.Cycles
	}
	if gotRuns != len(runs) || gotCycles != wantCycles {
		t.Errorf("dispatch books: %d runs / %d cycles, want %d / %d",
			gotRuns, gotCycles, len(runs), wantCycles)
	}
	if cache.Builds() == 0 {
		t.Error("AOT rung reported but no worker was ever built")
	}
}

// TestRungsList: the exported rung list stays in sync with the
// constants — meters size per-rung series off it.
func TestRungsList(t *testing.T) {
	want := []string{RungAOT, RungBitParallel, RungLaneLoop, RungScalar}
	if !reflect.DeepEqual(Rungs, want) {
		t.Fatalf("Rungs = %v, want %v", Rungs, want)
	}
	seen := map[string]bool{}
	for _, r := range Rungs {
		if seen[r] {
			t.Fatalf("duplicate rung %q", r)
		}
		seen[r] = true
	}
}
