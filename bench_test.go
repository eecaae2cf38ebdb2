package asim2

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/campaign"
	"repro/internal/codegen/gogen"
	"repro/internal/codegen/pasgen"
	"repro/internal/core"
	"repro/internal/isp"
	"repro/internal/machines"
	"repro/internal/specgen"
)

// The benchmark workload mirrors Figure 5.1: the microcoded stack
// machine running the Sieve of Eratosthenes. sieve(48) halts after
// ~5.8k cycles, the same scale as the thesis' 5545-cycle run.
const benchSieveSize = 48

func sieveSpec(b *testing.B) *Spec {
	b.Helper()
	src, err := machines.SieveSpec(benchSieveSize)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := ParseString("sieve", src)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

func benchMachine(b *testing.B, spec *Spec, backend Backend) {
	b.Helper()
	m, err := NewMachine(spec, backend, Options{Output: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := m.Run(int64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkFigure51Sieve times one simulated cycle of the sieve
// workload on every backend — the reproduction's core comparison.
// The machine halts and spins after ~5.8k cycles; per-cycle cost in
// the spin state is representative (all control selectors still
// evaluate), so b.N cycles is a fair denominator for every backend.
func BenchmarkFigure51Sieve(b *testing.B) {
	spec := sieveSpec(b)
	for _, backend := range Backends() {
		b.Run(string(backend), func(b *testing.B) {
			benchMachine(b, spec, backend)
		})
	}
}

// BenchmarkFigure51IBSM1986 times the thesis' own stack machine
// (transcribed from Appendix E). The program counter walks off the
// 133-word ROM shortly after cycle 5545, so the benchmark resets the
// machine between 5545-cycle runs — exactly the Figure 5.1 workload.
func BenchmarkFigure51IBSM1986(b *testing.B) {
	spec, err := ParseString("ibsm1986", machines.IBSM1986())
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, backend Backend) {
		m, err := NewMachine(spec, backend, Options{Output: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for done := int64(0); done < int64(b.N); {
			chunk := int64(machines.IBSM1986Cycles)
			if rest := int64(b.N) - done; rest < chunk {
				chunk = rest
			}
			m.Reset()
			if err := m.Run(chunk); err != nil {
				b.Fatal(err)
			}
			done += chunk
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
	}
	for _, backend := range Backends() {
		b.Run(string(backend), func(b *testing.B) { run(b, backend) })
	}
}

// BenchmarkCounter times the smallest machine, isolating per-cycle
// framework overhead from expression evaluation cost.
func BenchmarkCounter(b *testing.B) {
	spec, err := ParseString("counter", machines.Counter())
	if err != nil {
		b.Fatal(err)
	}
	for _, backend := range Backends() {
		b.Run(string(backend), func(b *testing.B) {
			benchMachine(b, spec, backend)
		})
	}
}

// BenchmarkTinyComputer times the Appendix F machine.
func BenchmarkTinyComputer(b *testing.B) {
	src, err := machines.TinyComputer(machines.TinyDivideImage(47, 5))
	if err != nil {
		b.Fatal(err)
	}
	spec, err := ParseString("tiny", src)
	if err != nil {
		b.Fatal(err)
	}
	for _, backend := range []Backend{Interp, Bytecode, Compiled} {
		b.Run(string(backend), func(b *testing.B) {
			benchMachine(b, spec, backend)
		})
	}
}

// BenchmarkPrepare times Figure 5.1's preparation stages: ASIM's
// "generate tables" (parse + analyze + backend construction) and ASIM
// II's "generate code" (parse + analyze + Go emission).
func BenchmarkPrepare(b *testing.B) {
	src, err := machines.SieveSpec(benchSieveSize)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parse-analyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ParseString("sieve", src); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, backend := range Backends() {
		b.Run("tables-"+string(backend), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, err := ParseString("sieve", src)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := NewMachine(spec, backend, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("generate-go", func(b *testing.B) {
		spec, err := ParseString("sieve", src)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = gogen.Generate(spec.Info, gogen.Options{Cycles: 5545})
		}
	})
	b.Run("generate-pascal", func(b *testing.B) {
		spec, err := ParseString("sieve", src)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = pasgen.Generate(spec.Info)
		}
	})
}

// BenchmarkAblationConstFold quantifies §4.4's optimization: compiled
// closures with and without constant folding / operation inlining.
func BenchmarkAblationConstFold(b *testing.B) {
	spec := sieveSpec(b)
	b.Run("fold", func(b *testing.B) { benchMachine(b, spec, Compiled) })
	b.Run("nofold", func(b *testing.B) { benchMachine(b, spec, CompiledNoFold) })
}

// BenchmarkAblationNameLookup quantifies the interpreter's table
// organization: hashed name resolution versus the original ASIM's
// linear findname scan.
func BenchmarkAblationNameLookup(b *testing.B) {
	spec := sieveSpec(b)
	b.Run("indexed", func(b *testing.B) { benchMachine(b, spec, Interp) })
	b.Run("linear", func(b *testing.B) { benchMachine(b, spec, InterpNaive) })
}

// BenchmarkCampaignScaling measures the campaign engine's aggregate
// throughput on a fleet of independent sieve machines at several
// worker counts — the repo's many-machines-at-once counterpart of
// Figure 5.1's one-machine cycles/s. On a multi-core host aggregate
// cycles/s should scale near-linearly until workers exceed cores;
// the reported metric seeds the BENCH_*.json perf trajectory.
func BenchmarkCampaignScaling(b *testing.B) {
	spec := sieveSpec(b)
	const fleetSize = 8
	const perRun = int64(5545) // the same scale as Figure 5.1's 5545-cycle run
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			prog, err := core.Compile(spec, Compiled)
			if err != nil {
				b.Fatal(err)
			}
			// GangSize 1 runs every run alone, a one-lane gang on the
			// scalar kernels: this benchmark isolates worker scaling,
			// BenchmarkGangFleet covers wider gangs.
			eng := campaign.Engine{Workers: workers, GangSize: 1}
			runs := campaign.Fleet("sieve", prog, fleetSize, perRun)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := eng.Execute(context.Background(), runs)
				if err != nil {
					b.Fatal(err)
				}
				if sum := campaign.Summarize(results, 0); sum.Errors != 0 || sum.Divergences != 0 {
					b.Fatalf("campaign summary: %+v", sum)
				}
			}
			b.ReportMetric(float64(int64(b.N)*fleetSize*perRun)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// BenchmarkGangFleet is the gang-execution tentpole measurement: the
// Figure 5.1 fleet workload (identical 5545-cycle sieve runs of one
// compiled Program) through the campaign engine as one-lane gangs (the
// pooled-scalar row) and as struct-of-arrays gangs of several widths.
// Single-worker, so the comparison isolates component-dispatch
// amortization across lanes from multicore scaling
// (BenchmarkCampaignScaling covers that). One benchmark iteration is
// one whole fleet.
func BenchmarkGangFleet(b *testing.B) {
	spec := sieveSpec(b)
	prog, err := Compile(spec, Compiled)
	if err != nil {
		b.Fatal(err)
	}
	const fleetSize = 32
	const perRun = int64(5545)
	for _, tc := range []struct {
		name string
		gang int
	}{
		{"pooled-scalar", 1},
		{"gang-8", 8},
		{"gang-32", 32},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng := campaign.Engine{Workers: 1, GangSize: tc.gang}
			runs := campaign.Fleet("sieve", prog, fleetSize, perRun)
			// Warm once untimed: the first gang use builds lane kernels.
			if _, err := eng.Execute(context.Background(), runs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := eng.Execute(context.Background(), runs)
				if err != nil {
					b.Fatal(err)
				}
				if sum := campaign.Summarize(results, 0); sum.Errors != 0 || sum.Divergences != 0 {
					b.Fatalf("gang fleet summary: %+v", sum)
				}
			}
			b.ReportMetric(float64(int64(b.N)*fleetSize*perRun)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// BenchmarkFleetBuild is the Program/State split's tentpole
// measurement: a fleet of short runs, where how a machine comes to
// exist dominates how long it runs. One benchmark iteration is one
// fleet member — a machine brought up and run for a short cycle
// budget. The regimes:
//
//   - construct-per-run: compile + build per member (what the
//     campaign layer did before the split);
//   - compile-once: one shared Program, a fresh machine per member;
//   - compile-once-pooled: one shared Program, one machine Reset
//     between members (what pooled engine workers do);
//   - engine-pooled: the real path — campaign.Fleet through
//     Engine.Execute, amortized over the fleet.
//
// Run with -benchmem: the allocation gap is the point.
func BenchmarkFleetBuild(b *testing.B) {
	spec := sieveSpec(b)
	const perRun = int64(256)
	b.Run("construct-per-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := NewMachine(spec, Compiled, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(perRun); err != nil {
				b.Fatal(err)
			}
		}
	})
	prog, err := Compile(spec, Compiled)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compile-once", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := prog.NewMachine(Options{}).Run(perRun); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile-once-pooled", func(b *testing.B) {
		b.ReportAllocs()
		m := prog.NewMachine(Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset()
			if err := m.Run(perRun); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine-pooled", func(b *testing.B) {
		b.ReportAllocs()
		const fleetSize = 64
		eng := campaign.Engine{} // Workers = GOMAXPROCS
		runs := campaign.Fleet("sieve-short", prog, fleetSize, perRun)
		b.ResetTimer()
		for done := 0; done < b.N; done += fleetSize {
			results, err := eng.Execute(context.Background(), runs)
			if err != nil {
				b.Fatal(err)
			}
			if sum := campaign.Summarize(results, 0); sum.Errors != 0 || sum.Divergences != 0 {
				b.Fatalf("fleet summary: %+v", sum)
			}
		}
	})
}

// BenchmarkISP times the instruction-set-level simulator (§1.2): the
// abstraction the thesis positions above RTL simulation. One iteration
// is one executed instruction.
func BenchmarkISP(b *testing.B) {
	prog, err := machines.SieveProgram(benchSieveSize)
	if err != nil {
		b.Fatal(err)
	}
	cpu := isp.New(prog.Words)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cpu.Halted {
			b.StopTimer()
			cpu = isp.New(prog.Words)
			b.StartTimer()
		}
		if err := cpu.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomSpecs times each backend across a mix of generated
// specifications, guarding against overfitting to the sieve machine.
func BenchmarkRandomSpecs(b *testing.B) {
	var specs []*Spec
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := specgen.Generate(rng, specgen.Config{Combs: 16, Mems: 3})
		spec, err := ParseString(fmt.Sprintf("rand%d", seed), src)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, backend := range []Backend{Interp, Bytecode, Compiled} {
		b.Run(string(backend), func(b *testing.B) {
			ms := make([]*core.Machine, len(specs))
			for i, spec := range specs {
				m, err := NewMachine(spec, backend, Options{Output: io.Discard})
				if err != nil {
					b.Fatal(err)
				}
				ms[i] = m
			}
			b.ResetTimer()
			per := int64(b.N/len(ms) + 1)
			for _, m := range ms {
				if err := m.Run(per); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
