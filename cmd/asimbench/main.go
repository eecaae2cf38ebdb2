// Command asimbench runs the repository's standing benchmark set
// outside `go test`: the Figure 5.1 single-machine comparison (every
// backend), the campaign scaling
// fleet, the gang-vs-pooled-scalar fleet comparison, and the
// fleet-build comparison (per-run construction vs compile-once vs
// pooled machines, with allocation profiles), with a built-in digest
// cross-check so a benchmark run that silently diverges fails loudly
// instead of reporting a fast wrong simulator. Results are written as
// a JSON trajectory file CI can archive and diff between commits;
// tools/benchgate gates CI on the report's headline speedups.
//
//	asimbench                       (full run, writes BENCH_fused.json)
//	asimbench -short -o -           (CI-sized run, JSON to stdout)
//	asimbench -workers 1,2,4,8,16   (campaign scaling worker counts)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	asim2 "repro"
	"repro/internal/aot"
	"repro/internal/campaign"
	"repro/internal/machines"
	"repro/internal/telemetry"
)

// Result is one timed configuration.
type Result struct {
	Name       string  `json:"name"`
	Cycles     int64   `json:"cycles"`
	Seconds    float64 `json:"seconds"`
	NsPerCycle float64 `json:"ns_per_cycle"`
	CyclesPerS float64 `json:"cycles_per_s"`

	// Fleet-build configurations additionally report run granularity
	// and the allocation profile.
	Runs         int     `json:"runs,omitempty"`
	NsPerRun     float64 `json:"ns_per_run,omitempty"`
	AllocsPerRun float64 `json:"allocs_per_run,omitempty"`
}

// Report is the file-level JSON shape.
type Report struct {
	Go                string  `json:"go"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	Short             bool    `json:"short"`
	FleetBuildSpeedup float64 `json:"fleetbuild_speedup"` // pooled vs per-run construction, short-run fleet
	GangSpeedup       float64 `json:"gang_speedup"`       // gang fleet vs pooled scalar fleet, Figure 5.1 workload
	// BitParallelSpeedup is the bit-plane gang kernels against the
	// lane-loop gang kernels on the 1-bit-heavy bit-mix fabric — the
	// headline for the width-specialized path.
	BitParallelSpeedup float64 `json:"bitparallel_speedup"`
	// AOTSpeedup is the compiled program's native workers against the in-process
	// compiled scalar path on the Figure 5.1 sieve fleet, warm (binary
	// cached). AOTBuildSeconds is the one-time cold `go build`;
	// AOTBreakevenCycles is the campaign length whose per-cycle savings
	// pay for it — the empirical anchor for the dispatch threshold.
	AOTSpeedup         float64  `json:"aot_speedup"`
	AOTBuildSeconds    float64  `json:"aot_build_seconds"`
	AOTBreakevenCycles int64    `json:"aot_breakeven_cycles"`
	Results            []Result `json:"results"`

	// Sections is each benchmark section's wall-clock time — the
	// profile of the benchmark run itself (warmups, repetitions and
	// cross-checks included), not of the simulator. PeakRSSBytes is the
	// process's peak resident set (VmHWM), 0 where the platform does
	// not expose it. Together they catch a benchmark suite that is
	// quietly getting slower or hungrier between commits.
	Sections     []Section `json:"sections"`
	PeakRSSBytes int64     `json:"peak_rss_bytes"`
}

// Section is one timed region of the benchmark suite.
type Section struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

func main() {
	log.SetFlags(0)
	short := flag.Bool("short", false, "CI-sized cycle budgets")
	out := flag.String("o", "BENCH_fused.json", "output path for the JSON report, or - for stdout")
	workers := flag.String("workers", "1,2,4,8", "comma-separated worker counts for campaign scaling")
	flag.IntVar(&reps, "reps", 3, "timed repetitions per configuration; the fastest is reported (noise rejection)")
	cycles := flag.Int64("cycles", 0, "per-backend cycle budget (0 = 2M, or 100k with -short)")
	flag.Parse()
	if reps < 1 {
		log.Fatalf("-reps must be at least 1, got %d", reps)
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "cycles" && *cycles <= 0 {
			log.Fatalf("-cycles must be positive, got %d", *cycles)
		}
	})

	perBackend := int64(2_000_000)
	perFleetRun := int64(5545) // the Figure 5.1 workload length
	fleetSize := 16
	if *short {
		perBackend = 100_000
		fleetSize = 4
	}
	if *cycles > 0 {
		perBackend = *cycles
	}

	var rep Report
	rep.Go = runtime.Version()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Short = *short

	// endSection closes the current timed region; each call starts the
	// next one where the last ended, so the sections tile the run.
	sectionStart := time.Now()
	endSection := func(name string) {
		rep.Sections = append(rep.Sections, Section{Name: name, Seconds: time.Since(sectionStart).Seconds()})
		sectionStart = time.Now()
	}

	specs := []struct {
		name       string
		src        func() (string, error)
		resetEvery int64 // Reset between chunks of this many cycles (0: free-running)
	}{
		{"sieve", func() (string, error) { return machines.SieveSpec(48) }, 0},
		// The IBSM's program counter walks off the 133-word ROM shortly
		// after cycle 5545, so it runs in Figure 5.1-length chunks.
		{"ibsm1986", func() (string, error) { return machines.IBSM1986(), nil }, machines.IBSM1986Cycles},
	}
	backends := []asim2.Backend{asim2.Interp, asim2.Bytecode, asim2.Compiled}

	var sieveSpec *asim2.Spec
	for _, s := range specs {
		src, err := s.src()
		if err != nil {
			log.Fatal(err)
		}
		spec, err := asim2.ParseString(s.name, src)
		if err != nil {
			log.Fatal(err)
		}
		if s.name == "sieve" {
			sieveSpec = spec
		}

		// Digest cross-check before timing: every backend must reach
		// bit-identical state, or the numbers below are measuring a
		// broken simulator.
		if err := crossCheck(spec, backends, s.resetEvery); err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}

		for _, b := range backends {
			r, err := timeMachine(s.name+"/"+string(b), spec, b, perBackend, s.resetEvery)
			if err != nil {
				log.Fatal(err)
			}
			rep.Results = append(rep.Results, r)
		}
	}
	endSection("backends")

	// The sieve compiled once: the campaign scaling fleet and the
	// fleet-build comparison below both share this one program.
	sieveProg, err := asim2.Compile(sieveSpec, asim2.Compiled)
	if err != nil {
		log.Fatal(err)
	}

	// Campaign scaling: an identical-machine sieve fleet through the
	// engine at each worker count. GangSize 1 pins the pooled scalar
	// path (each chunk through Machine.Run) so the rows isolate worker
	// scaling; the gang/* section below measures gang execution.
	// Aggregate cycles/s is the fleet-throughput metric.
	for _, ws := range strings.Split(*workers, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(ws))
		if err != nil || w <= 0 {
			log.Fatalf("bad -workers entry %q", ws)
		}
		eng := campaign.Engine{Workers: w, GangSize: 1}
		runs := campaign.Fleet("sieve", sieveProg, fleetSize, perFleetRun)
		start := time.Now()
		results, err := eng.Execute(context.Background(), runs)
		if err != nil {
			log.Fatal(err)
		}
		sum := campaign.Summarize(results, time.Since(start))
		if sum.Errors != 0 || sum.Divergences != 0 {
			log.Fatalf("campaign workers=%d: %s", w, sum)
		}
		rep.Results = append(rep.Results, Result{
			Name:       fmt.Sprintf("campaign/sieve/workers-%d", w),
			Cycles:     sum.Cycles,
			Seconds:    sum.ElapsedSec,
			NsPerCycle: 1e9 / sum.CyclesPerSec,
			CyclesPerS: sum.CyclesPerSec,
		})
	}
	endSection("campaign-scaling")

	// Gang execution: the Figure 5.1 fleet workload (identical
	// 5545-cycle sieve runs of one compiled program) through the
	// engine's pooled scalar path and through struct-of-arrays gangs,
	// single-worker so the row measures dispatch amortization, not
	// parallelism (the campaign rows above cover that). The digests of
	// the two paths are cross-checked run by run: a gang that drifts
	// from the scalar path fails the benchmark instead of reporting a
	// fast wrong simulator.
	// Even the short mode runs full-width gangs: the gang/scalar ratio
	// depends on lane count, and the CI gate compares it against the
	// committed full-run baseline.
	gangFleet := 64
	if *short {
		gangFleet = campaign.DefaultGangSize
	}
	// timeFleetEng times one fleet through the given engine, warming
	// once untimed first: the first gang use builds the lane kernels,
	// the first AOT dispatch builds the worker binary, and every path
	// deserves warm caches.
	timeFleetEng := func(name string, eng campaign.Engine, prog *asim2.Program, fleet int, perRun int64) (Result, []campaign.Result, error) {
		runs := campaign.Fleet(name, prog, fleet, perRun)
		if _, err := eng.Execute(context.Background(), runs); err != nil {
			return Result{}, nil, err
		}
		var results []campaign.Result
		sec, err := minSeconds(func() (float64, error) {
			start := time.Now()
			res, err := eng.Execute(context.Background(), runs)
			if err != nil {
				return 0, err
			}
			sec := time.Since(start).Seconds()
			if sum := campaign.Summarize(res, 0); sum.Errors != 0 || sum.Divergences != 0 {
				return 0, fmt.Errorf("%s: %s", name, sum)
			}
			results = res
			return sec, nil
		})
		if err != nil {
			return Result{}, nil, err
		}
		sum := campaign.Summarize(results, 0)
		return Result{
			Name:       name,
			Cycles:     sum.Cycles,
			Seconds:    sec,
			NsPerCycle: sec * 1e9 / float64(sum.Cycles),
			CyclesPerS: float64(sum.Cycles) / sec,
		}, results, nil
	}
	// crossCheckFleets requires run-by-run digest agreement between two
	// timed paths — a fast wrong simulator must fail, not report.
	crossCheckFleets := func(aName string, a []campaign.Result, bName string, b []campaign.Result) {
		for i := range a {
			if a[i].Digest != b[i].Digest {
				log.Fatalf("digest divergence at run %d: %s=%s %s=%s",
					i, aName, a[i].Digest, bName, b[i].Digest)
			}
		}
	}
	timeFleet := func(name string, prog *asim2.Program, fleet int, perRun int64, gangSize int) (Result, []campaign.Result, error) {
		return timeFleetEng(name, campaign.Engine{Workers: 1, GangSize: gangSize}, prog, fleet, perRun)
	}
	{
		scalar, scalarResults, err := timeFleet("gang/scalar-fleet", sieveProg, gangFleet, perFleetRun, 1)
		if err != nil {
			log.Fatal(err)
		}
		gang, gangResults, err := timeFleet(fmt.Sprintf("gang/gang-%d", campaign.DefaultGangSize), sieveProg, gangFleet, perFleetRun, campaign.DefaultGangSize)
		if err != nil {
			log.Fatal(err)
		}
		crossCheckFleets("scalar", scalarResults, "gang", gangResults)
		rep.Results = append(rep.Results, scalar, gang)
		rep.GangSpeedup = scalar.NsPerCycle / gang.NsPerCycle
	}
	endSection("gang")

	// Bit-parallel kernels: the 1-bit-heavy bit-mix fabric ganged at
	// one plane word (64 lanes), against the identical fleet forced
	// onto the lane-loop gang kernels (compiled-nobitpar). Both paths
	// run single-worker at the same width, so the ratio isolates the
	// word-op kernels, and their digests must agree run by run.
	{
		perBitRun := int64(30_000)
		if *short {
			perBitRun = 6000
		}
		bitSpec, err := asim2.ParseString("bitmix", machines.BitMixSpec(8, 12))
		if err != nil {
			log.Fatal(err)
		}
		bitProg, err := asim2.Compile(bitSpec, asim2.Compiled)
		if err != nil {
			log.Fatal(err)
		}
		laneProg, err := asim2.Compile(bitSpec, asim2.CompiledNoBitpar)
		if err != nil {
			log.Fatal(err)
		}
		lanes := campaign.DefaultBitGangSize
		lane, laneResults, err := timeFleet("bitparallel/gang-laneloop", laneProg, lanes, perBitRun, lanes)
		if err != nil {
			log.Fatal(err)
		}
		bit, bitResults, err := timeFleet("bitparallel/gang-bitplane", bitProg, lanes, perBitRun, lanes)
		if err != nil {
			log.Fatal(err)
		}
		crossCheckFleets("laneloop", laneResults, "bitplane", bitResults)
		rep.Results = append(rep.Results, lane, bit)
		rep.BitParallelSpeedup = lane.NsPerCycle / bit.NsPerCycle
	}
	endSection("bitparallel")

	// Ahead-of-time native workers: the same Figure 5.1 sieve fleet
	// through the engine's in-process scalar path and through the
	// compiled program's subprocess workers, single-worker, digest
	// cross-checked run by run. The one-time `go build` is timed
	// separately (cold, on a fresh cache); the fleet rows measure
	// warm steady state, and the break-even figure converts the build
	// cost into the campaign length that amortizes it — the dispatch
	// threshold's empirical anchor.
	{
		// No -short reduction here: unlike the other speedups, this
		// ratio is scale-dependent — each dispatch pays a fixed
		// subprocess-spawn cost (~1ms) that only amortizes over a
		// campaign-sized cycle budget, so a shrunken fleet would
		// measure spawn overhead, not steady-state throughput, and
		// drift from the committed full-run baseline benchgate holds
		// it against. ~2s of extra CI time buys a transferable number.
		perAOTRun := int64(200_000)
		aotFleet := 8
		cacheDir, err := os.MkdirTemp("", "asimbench-aot-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(cacheDir)
		cache, err := aot.NewCache(cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		if _, err := cache.Binary(sieveProg.AOTWorkerSource()); err != nil {
			log.Fatalf("aot worker build: %v", err)
		}
		rep.AOTBuildSeconds = time.Since(t0).Seconds()
		rep.Results = append(rep.Results, Result{Name: "aot/build", Seconds: rep.AOTBuildSeconds})

		fused, fusedResults, err := timeFleet("aot/fused-fleet", sieveProg, aotFleet, perAOTRun, 1)
		if err != nil {
			log.Fatal(err)
		}
		native, nativeResults, err := timeFleetEng("aot/native-fleet",
			campaign.Engine{Workers: 1, GangSize: 1, AOT: cache, AOTThreshold: 0},
			sieveProg, aotFleet, perAOTRun)
		if err != nil {
			log.Fatal(err)
		}
		crossCheckFleets("fused", fusedResults, "native", nativeResults)
		if cache.Fallbacks() != 0 {
			log.Fatalf("aot fleet fell back to in-process %d times; the native row is not measuring workers", cache.Fallbacks())
		}
		rep.Results = append(rep.Results, fused, native)
		rep.AOTSpeedup = fused.NsPerCycle / native.NsPerCycle
		if delta := fused.NsPerCycle - native.NsPerCycle; delta > 0 {
			rep.AOTBreakevenCycles = int64(rep.AOTBuildSeconds * 1e9 / delta)
		}
	}
	endSection("aot")

	// Fleet build: many short runs, where how the machine comes to
	// exist dominates how long it runs. The Program/State split's
	// claim is the gap between the three regimes: compile per run
	// (the old campaign behaviour), compile once and allocate a
	// machine per run, and compile once with one Reset-reused machine
	// (what pooled engine workers do).
	fleetRuns := 512
	perShortRun := int64(256)
	if *short {
		fleetRuns = 128
	}
	var perRunNs, pooledNs float64
	{
		r, err := timeRuns("fleetbuild/construct-per-run", fleetRuns, perShortRun, func() error {
			m, err := asim2.NewMachine(sieveSpec, asim2.Compiled, asim2.Options{})
			if err != nil {
				return err
			}
			return m.Run(perShortRun)
		})
		if err != nil {
			log.Fatal(err)
		}
		rep.Results = append(rep.Results, r)
		perRunNs = r.NsPerRun

		r, err = timeRuns("fleetbuild/compile-once", fleetRuns, perShortRun, func() error {
			return sieveProg.NewMachine(asim2.Options{}).Run(perShortRun)
		})
		if err != nil {
			log.Fatal(err)
		}
		rep.Results = append(rep.Results, r)

		pooled := sieveProg.NewMachine(asim2.Options{})
		r, err = timeRuns("fleetbuild/pooled", fleetRuns, perShortRun, func() error {
			pooled.Reset()
			return pooled.Run(perShortRun)
		})
		if err != nil {
			log.Fatal(err)
		}
		rep.Results = append(rep.Results, r)
		pooledNs = r.NsPerRun

		// The same comparison through the engine itself: one Execute
		// over a fleet of short runs exercises the worker pools.
		eng := campaign.Engine{Workers: rep.GOMAXPROCS}
		runs := campaign.Fleet("sieve-short", sieveProg, fleetRuns, perShortRun)
		r, err = timeRuns("fleetbuild/engine-pooled", 1, int64(fleetRuns)*perShortRun, func() error {
			results, err := eng.Execute(context.Background(), runs)
			if err != nil {
				return err
			}
			if sum := campaign.Summarize(results, 0); sum.Errors != 0 || sum.Divergences != 0 {
				return fmt.Errorf("fleet-build campaign: %s", sum)
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		r.Runs = fleetRuns
		r.NsPerRun = r.Seconds * 1e9 / float64(fleetRuns)
		r.AllocsPerRun /= float64(fleetRuns)
		rep.Results = append(rep.Results, r)
	}
	if pooledNs > 0 {
		rep.FleetBuildSpeedup = perRunNs / pooledNs
	}
	endSection("fleetbuild")
	rep.PeakRSSBytes = telemetry.PeakRSSBytes()

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Runs > 0 {
			fmt.Fprintf(os.Stderr, "%-32s %10.0f ns/run   %12.1f allocs/run\n", r.Name, r.NsPerRun, r.AllocsPerRun)
			continue
		}
		fmt.Fprintf(os.Stderr, "%-32s %10.1f ns/cycle %14.0f cycles/s\n", r.Name, r.NsPerCycle, r.CyclesPerS)
	}
	fmt.Fprintf(os.Stderr, "fleet-build speedup (pooled vs per-run construction): %.2fx\n", rep.FleetBuildSpeedup)
	fmt.Fprintf(os.Stderr, "gang speedup (gang fleet vs pooled scalar fleet): %.2fx\n", rep.GangSpeedup)
	fmt.Fprintf(os.Stderr, "bit-parallel speedup (bit-plane vs lane-loop gang kernels): %.2fx\n", rep.BitParallelSpeedup)
	fmt.Fprintf(os.Stderr, "aot speedup (native workers vs in-process compiled): %.2fx (build %.2fs, break-even %d cycles)\n",
		rep.AOTSpeedup, rep.AOTBuildSeconds, rep.AOTBreakevenCycles)
}

// reps is how many timed repetitions each configuration gets; the
// fastest repetition is reported. The minimum over a few runs is far
// more stable than a single sample on shared machines (CI runners,
// containers), where scheduler and frequency noise only ever make
// code look slower — which is exactly what the benchgate must not
// mistake for a regression.
var reps = 3

// minSeconds runs the measurement reps times and returns the fastest.
func minSeconds(measure func() (float64, error)) (float64, error) {
	best := 0.0
	for r := 0; r < reps; r++ {
		sec, err := measure()
		if err != nil {
			return 0, err
		}
		if r == 0 || sec < best {
			best = sec
		}
	}
	return best, nil
}

// timeRuns times n invocations of run — each simulating perRun cycles
// — and samples the allocation count across them, for the fleet-build
// comparison where per-run construction cost is the measurement. The
// reported time is the fastest of reps repetitions; allocations are
// averaged across all of them.
func timeRuns(name string, n int, perRun int64, run func() error) (Result, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sec, err := minSeconds(func() (float64, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := run(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		return time.Since(start).Seconds(), nil
	})
	if err != nil {
		return Result{}, err
	}
	runtime.ReadMemStats(&after)
	cycles := int64(n) * perRun
	return Result{
		Name:         name,
		Cycles:       cycles,
		Seconds:      sec,
		NsPerCycle:   sec * 1e9 / float64(cycles),
		CyclesPerS:   float64(cycles) / sec,
		Runs:         n,
		NsPerRun:     sec * 1e9 / float64(n),
		AllocsPerRun: float64(after.Mallocs-before.Mallocs) / float64(n*reps),
	}, nil
}

// timeMachine runs one machine for a fixed cycle budget after a short
// warmup, resetting every resetEvery cycles when the workload demands
// it.
func timeMachine(name string, spec *asim2.Spec, b asim2.Backend, cycles, resetEvery int64) (Result, error) {
	m, err := asim2.NewMachine(spec, b, asim2.Options{Output: io.Discard})
	if err != nil {
		return Result{}, err
	}
	drive := func(total int64) error {
		chunk := resetEvery
		if chunk <= 0 {
			chunk = total
		}
		for done := int64(0); done < total; {
			n := min(chunk, total-done)
			if resetEvery > 0 {
				m.Reset()
			}
			if err := m.Run(n); err != nil {
				return err
			}
			done += n
		}
		return nil
	}
	// Warm up first, so the first timed repetition is not charged for
	// cold caches and branch predictors.
	if err := drive(cycles / 10); err != nil {
		return Result{}, fmt.Errorf("%s warmup: %w", name, err)
	}
	sec, err := minSeconds(func() (float64, error) {
		start := time.Now()
		if err := drive(cycles); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return time.Since(start).Seconds(), nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:       name,
		Cycles:     cycles,
		Seconds:    sec,
		NsPerCycle: sec * 1e9 / float64(cycles),
		CyclesPerS: float64(cycles) / sec,
	}, nil
}

// crossCheck runs the spec a fixed number of cycles on every backend
// and requires one common state digest.
func crossCheck(spec *asim2.Spec, backends []asim2.Backend, resetEvery int64) error {
	cycles := int64(8192)
	if resetEvery > 0 && resetEvery < cycles {
		cycles = resetEvery
	}
	digest := func(b asim2.Backend) (string, error) {
		m, err := asim2.NewMachine(spec, b, asim2.Options{Output: io.Discard})
		if err != nil {
			return "", err
		}
		if err := m.Run(cycles); err != nil {
			return "", err
		}
		return campaign.SnapshotDigest(m), nil
	}
	want, err := digest(backends[0])
	if err != nil {
		return err
	}
	for _, b := range backends[1:] {
		got, err := digest(b)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("digest divergence: %s=%s, %s=%s", backends[0], want, b, got)
		}
	}
	return nil
}
