// Command asimsweep runs named simulation campaigns — fleets of
// machines, cross-backend comparison groups, fault-injection sweeps —
// through the concurrent campaign engine, and reports campaign-level
// aggregates: total simulated cycles, aggregate cycles/s, divergence
// and fault-outcome counts.
//
//	asimsweep -list
//	asimsweep sieve-fleet
//	asimsweep -workers 8 -n 32 sieve-fleet randspec-sweep
//	asimsweep -gang 64 -n 256 sieve-fleet
//	asimsweep -json tiny-divide-faults
//	asimsweep -aot -aot-threshold 0 sieve-fleet
//
// With no scenario arguments every registered scenario runs. The
// -json form emits one object per scenario, suitable for appending to
// BENCH_*.json throughput trajectories. -aot adds the native rung to
// the engine's dispatch: runs of compiled programs (the default
// backend; compiled-aot is an alias of compiled) whose campaign clears
// -aot-threshold execute in generated worker subprocesses.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/aot"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/telemetry"
)

type report struct {
	Scenario string `json:"scenario"`
	Workers  int    `json:"workers"`
	campaign.Summary
	Runs []runReport `json:"run_results,omitempty"`
}

type runReport struct {
	Name      string `json:"name"`
	Group     string `json:"group,omitempty"`
	Cycles    int64  `json:"cycles"`
	Digest    string `json:"digest"`
	Activated int64  `json:"activated,omitempty"`
	Err       string `json:"error,omitempty"`
}

func main() {
	log.SetFlags(0)
	exit, err := run()
	if err != nil {
		log.Fatal(err)
	}
	os.Exit(exit)
}

// run executes the campaigns and returns the exit status: 1 when a
// campaign failed to finish or a comparison fleet diverged. Its
// deferred cleanup — the temporary AOT cache's removal — runs on every
// exit path, errors included.
func run() (int, error) {
	list := flag.Bool("list", false, "list registered scenarios and exit")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	gang := flag.Int("gang", 0, "gang width for lockstep execution (0 = per program: 64 lanes for bit-parallel programs, 32 otherwise; 1: every run a one-lane gang)")
	jsonOut := flag.Bool("json", false, "emit JSON (one report object per scenario)")
	perRun := flag.Bool("runs", false, "include per-run results in the report")
	n := flag.Int("n", 0, "fleet size / sweep width (0 = scenario default)")
	cycles := flag.Int64("cycles", 0, "per-run cycle budget (0 = scenario default)")
	backend := flag.String("backend", "", "backend for single-backend scenarios (default compiled)")
	seed := flag.Int64("seed", 0, "base seed for generated specifications")
	size := flag.Int("size", 0, "machine size parameter (0 = scenario default)")
	timeout := flag.Duration("timeout", 0, "overall campaign deadline (0 = none)")
	useAOT := flag.Bool("aot", false, "run compiled programs above -aot-threshold in ahead-of-time native workers (compiled-aot is an alias of compiled)")
	aotDir := flag.String("aot-dir", "", "worker binary cache directory (default: a per-process temp dir)")
	aotThreshold := flag.Int64("aot-threshold", campaign.DefaultAOTThreshold, "campaign cycles x runs below which compiled runs stay in-process (0 = always use workers)")
	traceOut := flag.String("trace-out", "", "write per-dispatch engine spans as Chrome trace_event JSON to this file on exit (open in chrome://tracing or Perfetto)")
	flag.Parse()

	if *list {
		for _, name := range campaign.Names() {
			s, _ := campaign.Lookup(name)
			fmt.Printf("%-20s %s\n", s.Name, s.Desc)
		}
		return 0, nil
	}

	names := flag.Args()
	if len(names) == 0 {
		names = campaign.Names()
	}
	params := campaign.Params{
		N:       *n,
		Cycles:  *cycles,
		Backend: core.Backend(*backend),
		Seed:    *seed,
		Size:    *size,
	}
	eng := campaign.Engine{Workers: *workers, GangSize: *gang}
	if *useAOT {
		dir := *aotDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "asimsweep-aot-")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		cache, err := aot.NewCache(dir)
		if err != nil {
			return 0, err
		}
		eng.AOT = cache
		eng.AOTThreshold = *aotThreshold
	}
	effective := eng.Workers
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer(1 << 16)
	}

	var reports []report
	exit := 0
	for _, name := range names {
		s, ok := campaign.Lookup(name)
		if !ok {
			return 0, fmt.Errorf("unknown scenario %q (have %v)", name, campaign.Names())
		}
		runs, err := s.Build(params)
		if err != nil {
			return 0, fmt.Errorf("scenario %s: %v", name, err)
		}
		if tracer != nil {
			trace, job := telemetry.NewTraceID(), name
			eng.Observe = func(_ context.Context, d campaign.Dispatch) {
				tracer.Record(telemetry.Span{
					Trace: trace, Job: job, Name: "engine." + d.Rung,
					StartUS: d.Start.UnixMicro(), DurUS: d.Dur.Microseconds(),
					Rung: d.Rung, Runs: d.Runs, Lanes: d.Runs, Cycles: d.Cycles,
				})
			}
		}
		t0 := time.Now()
		results, err := eng.Execute(ctx, runs)
		elapsed := time.Since(t0)
		if err != nil {
			log.Printf("scenario %s: %v", name, err)
			exit = 1
		}
		sum := campaign.Summarize(results, elapsed)
		// Divergences and errors in a comparison or throughput fleet
		// are simulator failures and must gate CI; in a fault campaign
		// they are the findings being hunted.
		if !s.FaultCampaign && (sum.Divergences > 0 || sum.Errors > 0) {
			exit = 1
		}
		rep := report{Scenario: name, Workers: effective, Summary: sum}
		if *perRun {
			for _, r := range results {
				rr := runReport{Name: r.Name, Group: r.Group, Cycles: r.Cycles, Digest: r.Digest}
				for _, a := range r.Activated {
					rr.Activated += a
				}
				if r.Err != nil {
					rr.Err = r.Err.Error()
				}
				rep.Runs = append(rep.Runs, rr)
			}
		}
		reports = append(reports, rep)
		if !*jsonOut {
			fmt.Printf("%-20s %s\n", name, sum)
			// Surface what went wrong without requiring -runs: one
			// line per distinct error message.
			seen := map[string]bool{}
			for _, r := range results {
				if r.Err == nil || seen[r.Err.Error()] {
					continue
				}
				seen[r.Err.Error()] = true
				fmt.Fprintf(os.Stderr, "  %s: %v\n", r.Name, r.Err)
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return 0, err
		}
	}
	if tracer != nil {
		out, err := os.Create(*traceOut)
		if err != nil {
			return 0, err
		}
		if err := telemetry.WriteChromeTrace(out, tracer.Spans()); err != nil {
			out.Close()
			return 0, err
		}
		if err := out.Close(); err != nil {
			return 0, err
		}
	}
	return exit, nil
}
