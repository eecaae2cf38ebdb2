package campaign

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machines"
)

// TestExecuteStreamMatchesExecute: the streamed results — collected
// from the callback and re-indexed — are exactly Execute's indexed
// slice, and the slice ExecuteStream itself returns is too. Mixed
// workload so both the gang and the scalar dispatch paths stream.
func TestExecuteStreamMatchesExecute(t *testing.T) {
	runs := sieveFleet(t, 9, 800)
	runs = append(runs, faultRuns(t)...)
	for _, workers := range []int{1, 4} {
		eng := Engine{Workers: workers, Chunk: 128}
		want, err := eng.Execute(context.Background(), runs)
		if err != nil {
			t.Fatal(err)
		}
		streamed := make([]Result, len(runs))
		delivered := make([]int, len(runs))
		got, err := eng.ExecuteStream(context.Background(), runs, func(r Result) {
			streamed[r.Index] = r
			delivered[r.Index]++
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range delivered {
			if n != 1 {
				t.Fatalf("workers=%d: run %d delivered %d times", workers, i, n)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: ExecuteStream slice differs from Execute", workers)
		}
		if !reflect.DeepEqual(streamed, want) {
			t.Errorf("workers=%d: streamed results differ from Execute", workers)
		}
	}
}

func faultRuns(t *testing.T) []Run {
	t.Helper()
	p := tinyDivideProgram(t)
	digest := func(m *core.Machine) string {
		return fmt.Sprintf("q=%d", m.MemCell("memory", 32))
	}
	var faults []fault.Fault
	for bit := 0; bit < 4; bit++ {
		faults = append(faults, fault.Fault{Component: "ac", Bit: bit, Kind: fault.Flip, From: 43})
	}
	return FaultRuns("tiny", p, 400, digest, faults)
}

// TestExecuteStreamCancellation: every run — including the ones never
// dispatched after cancellation — is delivered exactly once.
func TestExecuteStreamCancellation(t *testing.T) {
	runs := sieveFleet(t, 32, 200000)
	ctx, cancel := context.WithCancel(context.Background())
	eng := Engine{Workers: 2, Chunk: 64, GangSize: 1}
	var mu sync.Mutex
	delivered := make(map[int]int)
	done := 0
	_, err := eng.ExecuteStream(ctx, runs, func(r Result) {
		mu.Lock()
		delivered[r.Index]++
		done++
		if done == 3 {
			cancel()
		}
		mu.Unlock()
	})
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if len(delivered) != len(runs) {
		t.Fatalf("delivered %d of %d runs", len(delivered), len(runs))
	}
	for i, n := range delivered {
		if n != 1 {
			t.Errorf("run %d delivered %d times", i, n)
		}
	}
}

// TestConcurrentJobsSharedEngineAndCache is the serving-layer shape
// run bare: one Engine and one ProgramCache shared by many concurrent
// jobs — some batch (Execute), some streaming (ExecuteStream), and
// identical specs arriving as distinct parse products — all under the
// race detector in CI. Every job's results must match the reference,
// and the cache must have compiled each (spec, backend) exactly once.
func TestConcurrentJobsSharedEngineAndCache(t *testing.T) {
	cache := core.NewProgramCache()
	srcs := make([]string, 3)
	for i := range srcs {
		src, err := machines.SieveSpec(16 + 2*i)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = src
	}
	eng := Engine{Workers: 2, Chunk: 256}
	const jobs = 12
	const cycles = 600

	// Reference results, one per distinct spec, from a private engine.
	want := make([][]Result, len(srcs))
	for i, src := range srcs {
		spec, err := core.ParseString("ref", src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := core.Compile(spec, core.Compiled)
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = Engine{Workers: 1}.Execute(context.Background(), Fleet("job", prog, 4, cycles))
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			which := j % len(srcs)
			// Each job re-parses its source: distinct *Spec, same
			// content — the cache must coalesce them.
			spec, err := core.ParseString(fmt.Sprintf("job%d", j), srcs[which])
			if err != nil {
				errs <- err
				return
			}
			prog, _, err := cache.Get(spec, core.Compiled)
			if err != nil {
				errs <- err
				return
			}
			runs := Fleet("job", prog, 4, cycles)
			var got []Result
			if j%2 == 0 {
				got, err = eng.Execute(context.Background(), runs)
			} else {
				streamed := make([]Result, len(runs))
				_, err = eng.ExecuteStream(context.Background(), runs, func(r Result) {
					streamed[r.Index] = r
				})
				got = streamed
			}
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want[which]) {
				errs <- fmt.Errorf("job %d: results diverge from reference", j)
			}
		}(j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cache.Misses() != int64(len(srcs)) {
		t.Errorf("cache compiled %d keys, want %d", cache.Misses(), len(srcs))
	}
	if cache.Hits() != int64(jobs-len(srcs)) {
		t.Errorf("cache hits = %d, want %d", cache.Hits(), jobs-len(srcs))
	}
}

// TestExecuteStreamTimely: results arrive while the campaign is still
// running, not in one burst at the end — the property the serving
// layer's NDJSON stream exists for. With one worker and per-run
// budgets large enough to straddle chunk boundaries, the first
// delivery must precede the engine's return by at least one run.
func TestExecuteStreamTimely(t *testing.T) {
	runs := sieveFleet(t, 8, 5000)
	eng := Engine{Workers: 1, Chunk: 256, GangSize: 1}
	var firstAt, lastAt time.Time
	n := 0
	_, err := eng.ExecuteStream(context.Background(), runs, func(Result) {
		if n == 0 {
			firstAt = time.Now()
		}
		n++
		lastAt = time.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(runs) {
		t.Fatalf("delivered %d of %d", n, len(runs))
	}
	if !firstAt.Before(lastAt) {
		t.Error("all deliveries collapsed into one instant; streaming is not incremental")
	}
}

// TestExecuteBurstsMatchDispatches: ExecuteBursts delivers each
// dispatch unit's results together — one burst per Observe record,
// each burst the size of its unit — every run exactly once, and
// returns Execute's slice. A mixed campaign, so gang units (several
// runs a burst) and scalar units (one) both deliver.
func TestExecuteBurstsMatchDispatches(t *testing.T) {
	runs := sieveFleet(t, 9, 800)
	runs = append(runs, faultRuns(t)...)
	for _, workers := range []int{1, 2} {
		want, err := Engine{Workers: workers, Chunk: 128}.Execute(context.Background(), runs)
		if err != nil {
			t.Fatal(err)
		}
		log := &dispatchLog{}
		eng := Engine{Workers: workers, Chunk: 128, Observe: log.hook()}
		var sizes []int
		delivered := make([]int, len(runs))
		got, err := eng.ExecuteBursts(context.Background(), runs, nil, func(burst []Result) {
			sizes = append(sizes, len(burst))
			for _, r := range burst {
				delivered[r.Index]++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range delivered {
			if n != 1 {
				t.Fatalf("workers=%d: run %d delivered %d times", workers, i, n)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: ExecuteBursts slice differs from Execute", workers)
		}
		var units []int
		for _, d := range log.ds {
			units = append(units, d.Runs)
		}
		if workers > 1 {
			// Dispatch records and bursts come from concurrent workers;
			// only their multisets must agree.
			sort.Ints(sizes)
			sort.Ints(units)
		}
		if !reflect.DeepEqual(sizes, units) {
			t.Errorf("workers=%d: burst sizes %v, dispatch units %v", workers, sizes, units)
		}
		if len(units) == len(runs) {
			t.Errorf("workers=%d: every unit held one run; the campaign formed no gang", workers)
		}
	}
}

// TestExecuteBurstsCancellation: runs never dispatched after
// cancellation arrive in bursts too, one per undispatched unit, every
// result carrying ctx's error.
func TestExecuteBurstsCancellation(t *testing.T) {
	runs := sieveFleet(t, 32, 200000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := &dispatchLog{}
	eng := Engine{Workers: 1, Chunk: 64, GangSize: 4, Observe: log.hook()}
	var bursts [][]Result
	delivered := make([]int, len(runs))
	_, err := eng.ExecuteBursts(ctx, runs, nil, func(burst []Result) {
		bursts = append(bursts, append([]Result(nil), burst...))
		for _, r := range burst {
			delivered[r.Index]++
		}
		cancel()
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, n := range delivered {
		if n != 1 {
			t.Errorf("run %d delivered %d times", i, n)
		}
	}
	if len(bursts) != len(runs)/4 {
		t.Fatalf("%d bursts, want one per 4-lane unit (%d)", len(bursts), len(runs)/4)
	}
	dispatched := len(log.ds)
	if dispatched == len(bursts) {
		t.Fatal("every unit was dispatched; cancellation came too late to test")
	}
	// One worker: bursts arrive in dispatch order, the undispatched
	// units' after the worker drains.
	for _, burst := range bursts[dispatched:] {
		if len(burst) != 4 {
			t.Errorf("undispatched burst of %d runs, want 4", len(burst))
		}
		for _, r := range burst {
			if r.Err != context.Canceled {
				t.Errorf("undispatched run %d: err %v, want context.Canceled", r.Index, r.Err)
			}
		}
	}
}
