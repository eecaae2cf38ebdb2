// Command figure51 regenerates Figure 5.1 of the thesis: the
// execution-time comparison between ASIM (the table-driven
// interpreter) and ASIM II (the specification compiler) on the stack
// machine running the Sieve of Eratosthenes.
//
// The reproduction measures every stage the figure lists:
//
//	ASIM      "generate tables"  -> parse + analyze + interpreter setup
//	          "simulation time"  -> table-walking simulation
//	ASIM II   "generate code"    -> parse + analyze + Go code generation
//	          "Pascal compile"   -> `go build` of the generated program
//	          "simulation time"  -> the compiled binary's run
//
// plus the in-process closure and bytecode backends as intermediate
// points. Absolute times are hardware-bound (the thesis used a VAX
// 11/780); the claim under reproduction is the *shape*: compiled
// simulation beats interpretation by an order of magnitude, while
// paying a preparation-time cost.
//
// The default workload is the thesis' own stack machine, transcribed
// from Appendix E, run for its original 5545 cycles (the program
// counter walks off the 133-word program ROM shortly after — which is
// exactly why the thesis called 5545 "the maximum number of cycles
// allowable"). The run is repeated -mult times, resetting the machine
// in between; the generated binary's process startup is measured with
// a one-cycle run and subtracted.
//
//	go run ./cmd/figure51
//	go run ./cmd/figure51 -machine modern -size 48
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	asim2 "repro"
	"repro/internal/codegen/gogen"
	"repro/internal/core"
	"repro/internal/machines"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run measures and prints the figure. Its deferred cleanup — the
// generated programs' temporary directory — runs on every exit path,
// errors included.
func run() error {
	machine := flag.String("machine", "ibsm1986", "workload: 'ibsm1986' (the thesis' own stack machine, Appendix E) or 'modern' (this repo's reconstruction)")
	size := flag.Int("size", 48, "modern machine only: sieve flags-array size (48 gives a cycle count near the thesis' 5545)")
	mult := flag.Int64("mult", 200, "repetitions of the base run per measurement")
	skipBuild := flag.Bool("skipbuild", false, "skip the go-build/binary leg (no toolchain available)")
	flag.Parse()

	var src string
	var base int64
	switch *machine {
	case "ibsm1986":
		src = machines.IBSM1986()
		base = machines.IBSM1986Cycles
		fmt.Printf("workload: the thesis' Itty Bitty Stack Machine (Appendix E transcription)\n")
		fmt.Printf("sieve run of %d cycles (the thesis' exact workload)", base)
	case "modern":
		var err error
		src, err = machines.SieveSpec(*size)
		if err != nil {
			return err
		}
		warm, err := asim2.ParseString("sieve", src)
		if err != nil {
			return err
		}
		wm, err := asim2.NewMachine(warm, asim2.Compiled, asim2.Options{})
		if err != nil {
			return err
		}
		halt, ok, err := wm.RunUntil(func(m *asim2.Machine) bool {
			return m.Value("state") == machines.HaltState
		}, 10_000_000)
		if err != nil || !ok {
			return fmt.Errorf("sieve did not halt: %v", err)
		}
		base = halt
		fmt.Printf("workload: sieve(%d) on this repo's microcoded stack machine\n", *size)
		fmt.Printf("halts after %d cycles (thesis workload: 5545 cycles)", base)
	default:
		return fmt.Errorf("unknown machine %q", *machine)
	}
	fmt.Printf("; each measurement repeats the run x%d\n\n", *mult)

	// --- ASIM: interpreter ------------------------------------------------
	var prep, sim [4]time.Duration // interp, interp-naive, bytecode, compiled
	for i, b := range []core.Backend{core.Interp, core.InterpNaive, core.Bytecode, core.Compiled} {
		var err error
		if prep[i], sim[i], err = measureBackend(src, b, base, *mult); err != nil {
			return err
		}
	}
	prepInterp, simInterp, simNaive, prepByte, simByte, simComp := prep[0], sim[0], sim[1], prep[2], sim[2], sim[3]

	// --- ASIM II: generate + compile + run ---------------------------------
	var genTime, buildTime, runTime time.Duration
	if !*skipBuild {
		var err error
		if genTime, buildTime, runTime, err = measureCodegen(src, base, *mult); err != nil {
			return err
		}
	}

	scale := func(d time.Duration) string { return fmt.Sprintf("%10.3fms", float64(d.Microseconds())/1000) }

	fmt.Println("Figure 5.1 — Execution time comparison (thesis: seconds on a VAX 11/780)")
	fmt.Println()
	fmt.Printf("%-42s %10s  %12s\n", "", "thesis", "this repo")
	fmt.Printf("ASIM (interpreter baseline)\n")
	fmt.Printf("  %-40s %9.1fs  %s\n", "generate tables", 10.8, scale(prepInterp))
	fmt.Printf("  %-40s %9.1fs  %s\n", "simulation time", 310.6, scale(simInterp))
	fmt.Printf("  %-40s %10s  %s\n", "simulation time (naive name lookup)", "-", scale(simNaive))
	fmt.Printf("ASIM II (compiled)\n")
	if !*skipBuild {
		fmt.Printf("  %-40s %9.1fs  %s\n", "generate code", 34.2, scale(genTime))
		fmt.Printf("  %-40s %9.1fs  %s\n", "host compile (thesis: Pascal, here: Go)", 43.2, scale(buildTime))
		fmt.Printf("  %-40s %9.1fs  %s\n", "simulation time (generated binary)", 15.0, scale(runTime))
	}
	fmt.Printf("  %-40s %10s  %s\n", "simulation time (in-process closures)", "-", scale(simComp))
	fmt.Printf("  %-40s %10s  %s  (prep %s)\n", "simulation time (bytecode VM)", "-", scale(simByte), scale(prepByte))
	fmt.Printf("Traditional methods (thesis only)\n")
	fmt.Printf("  %-40s %9.0fs\n", "generate prototype", 100000.0)
	fmt.Printf("  %-40s %9.2fs\n", "run prototype", 0.01)
	fmt.Println()

	ratio := func(a, b time.Duration) float64 {
		if b <= 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	fmt.Printf("speedups over the ASIM interpreter (thesis: ~20x sim-only, ~2.5x end-to-end):\n")
	fmt.Printf("  closures:     %5.1fx sim-only\n", ratio(simInterp, simComp))
	fmt.Printf("  bytecode:     %5.1fx sim-only\n", ratio(simInterp, simByte))
	if !*skipBuild {
		fmt.Printf("  generated Go: %5.1fx sim-only, %5.1fx including generate+compile\n",
			ratio(simInterp, runTime),
			ratio(prepInterp+simInterp, genTime+buildTime+runTime))
	}
	return nil
}

// measureBackend times spec preparation (parse + analyze + backend
// construction) and reps runs of perRun cycles each, resetting the
// machine between runs.
func measureBackend(src string, b core.Backend, perRun, reps int64) (prep, sim time.Duration, err error) {
	t0 := time.Now()
	spec, err := asim2.ParseString("sieve", src)
	if err != nil {
		return 0, 0, err
	}
	m, err := asim2.NewMachine(spec, b, asim2.Options{Output: io.Discard})
	if err != nil {
		return 0, 0, err
	}
	prep = time.Since(t0)

	t1 := time.Now()
	for r := int64(0); r < reps; r++ {
		m.Reset()
		if err := m.Run(perRun); err != nil {
			return 0, 0, fmt.Errorf("backend %s: %w", b, err)
		}
	}
	return prep, time.Since(t1), nil
}

// measureCodegen times Go source generation, `go build`, and the
// binary's execution. The binary runs the base workload once per
// process; process startup is estimated with a one-cycle build and
// subtracted, and the per-run simulation time is scaled by reps to
// stay comparable with the in-process rows.
func measureCodegen(src string, perRun, reps int64) (gen, build, run time.Duration, err error) {
	t0 := time.Now()
	spec, err := asim2.ParseString("sieve", src)
	if err != nil {
		return 0, 0, 0, err
	}
	code := gogen.Generate(spec.Info, gogen.Options{Cycles: perRun})
	gen = time.Since(t0)

	dir, err := os.MkdirTemp("", "figure51")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)

	// buildBin writes the program text to name.go and builds it into name.
	buildBin := func(name, code string) (string, time.Duration, error) {
		goFile, bin := filepath.Join(dir, name+".go"), filepath.Join(dir, name)
		if err := os.WriteFile(goFile, []byte(code), 0o644); err != nil {
			return "", 0, err
		}
		t := time.Now()
		if o, err := exec.Command("go", "build", "-o", bin, goFile).CombinedOutput(); err != nil {
			return "", 0, fmt.Errorf("go build: %w\n%s", err, o)
		}
		return bin, time.Since(t), nil
	}
	timeRun := func(bin string) (time.Duration, error) {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			t := time.Now()
			cmd := exec.Command(bin)
			cmd.Stdout = io.Discard
			if err := cmd.Run(); err != nil {
				return 0, fmt.Errorf("generated binary: %w", err)
			}
			if d := time.Since(t); d < best {
				best = d
			}
		}
		return best, nil
	}

	bin, build, err := buildBin("simbin", code)
	if err != nil {
		return 0, 0, 0, err
	}
	// Startup baseline: the same machine compiled for a single cycle.
	oneBin, _, err := buildBin("onebin", gogen.Generate(spec.Info, gogen.Options{Cycles: 1}))
	if err != nil {
		return 0, 0, 0, err
	}
	full, err := timeRun(bin)
	if err != nil {
		return 0, 0, 0, err
	}
	startup, err := timeRun(oneBin)
	if err != nil {
		return 0, 0, 0, err
	}
	return gen, build, max(full-startup, 0) * time.Duration(reps), nil
}
