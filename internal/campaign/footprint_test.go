package campaign

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/specgen"
)

// footprintDesign is the served unique_specs workload's design shape.
func footprintDesign(seed int64) string {
	return specgen.Generate(rand.New(rand.NewSource(seed)), specgen.Config{Combs: 40, Mems: 6})
}

// TestOneRunJobBuildsNoGangKernels: a run that dispatches alone never
// probes its program's gang capabilities. The probe builds the lane-loop
// and bit-plane kernels, which such a job never runs and a cached
// program would keep, so a one-run Execute on a fresh program must
// allocate no more than one on a program whose kernels already exist.
func TestOneRunJobBuildsNoGangKernels(t *testing.T) {
	compile := func() *core.Program {
		spec, err := core.ParseString("one", footprintDesign(7))
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Compile(spec, core.Compiled)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mallocs := func(p *core.Program) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := (Engine{Workers: 1}).Execute(context.Background(), Fleet("one", p, 1, 100)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(compile()) // warm the engine's one-time allocations
	fresh := mallocs(compile())
	built := compile()
	built.BitGangCapable() // the probe builds both kernel families
	warm := mallocs(built)
	// Building this design's kernels costs about ninety objects; eight
	// of slack absorb runtime noise.
	if fresh > warm+8 {
		t.Errorf("one-run Execute allocated %d objects on a fresh program, %d on one with its gang kernels built: plan built the kernels", fresh, warm)
	}
}

// TestCachedProgramRetainedBytes bounds what the program cache keeps per
// design on the unique_specs path: each design parsed, fetched through
// ProgramCache.Get and run once as a one-run job, then dropped by the
// caller. What stays is the evaluator and the slot layout; the syntax
// tree, the analysis and any gang kernels must not. Each job is followed
// by a collection, so the heap in use is what the cache holds, not how
// far the collector let one job's garbage spread among its objects.
func TestCachedProgramRetainedBytes(t *testing.T) {
	const designs, maxPerProgram = 128, 32 << 10
	cache := core.NewProgramCache()
	eng := Engine{Workers: 1}
	job := func(seed int64) {
		spec, err := core.ParseString("job", footprintDesign(seed))
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := cache.Get(spec, core.Compiled)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Execute(context.Background(), Fleet("job", p, 1, 100)); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
	}
	job(-1) // the cache map and the engine's one-time allocations
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := int64(0); seed < designs; seed++ {
		job(seed)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cache)
	if cache.Len() != designs+1 {
		t.Fatalf("cache holds %d programs, want %d", cache.Len(), designs+1)
	}
	per := (int64(after.HeapInuse) - int64(before.HeapInuse)) / designs
	t.Logf("%d bytes of heap in use per cached program", per)
	if per > maxPerProgram {
		t.Errorf("%d bytes of heap in use per cached program, want <= %d", per, maxPerProgram)
	}
}
