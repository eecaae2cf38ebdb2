// Command bench is the repository's served-path benchmark: six named
// workloads against in-process asimd / asimcoord servers on loopback,
// driven by a quiet closed-loop load generator, with an interp-backed
// correctness oracle on every job. README.md beside this file is the
// glossary; BENCHMARK.json at the repository root is the contract. Run
// it from the repository root:
//
//	go run ./bench                                    every workload, end to end and per layer
//	go run ./bench -workload line_stream              one workload's end-to-end metrics
//	go run ./bench -workload line_stream -trace 1     its per-layer metrics and trace file
//	go run ./bench -aa                                the whole set twice, compared against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed    = flag.Int64("seed", defaultSeed, "seed for generated designs and job order")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per run; scales every pass's fixed job count")
		// An int, not a bool: the driver passes "--trace 0", which a bool
		// flag would read as true followed by a stray argument.
		trace = flag.Int("trace", 0, "0: end-to-end metrics, nothing wrapped; 1: per-layer metrics from a traced pass and the probes")
		aa    = flag.Bool("aa", false, "A/A check: run every workload several times per side and hold the differences to BENCHMARK.json's bounds")
		cold  = flag.Bool("cold-setup", false, "internal: set -workload up once in this fresh process and print the seconds it took")
	)
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-aa]")
		os.Exit(2)
	}
	// Two cores, whatever the host has: the numbers stay comparable on
	// a wider machine, and two clients keep exactly these busy.
	runtime.GOMAXPROCS(2)

	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: coldSetups, outDir: outDir}
	var err error
	switch {
	case *aa:
		err = runAA(o)
	case *name == "":
		err = runAll(o)
	default:
		err = runOne(*name, o, *cold)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// outDir is where a run may leave files (durable state when /dev/shm
// is not writable, the disk probe, the trace file), relative to the
// repository root the command runs from. It is git-ignored.
const outDir = "bench/out"

var errIncorrect = errors.New("an oracle check failed")

// runOne measures one workload in this process and prints the run's
// record, then — as the last line — the contract's result object.
func runOne(name string, o options, cold bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if cold {
		return coldSetup(w, o)
	}
	rep, err := run(w, o)
	if err != nil {
		return err
	}
	for _, line := range []any{rep, rep.result} {
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	}
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// selfCommand re-executes this binary for one workload: a process of
// its own, so heap, program cache, planner state and peak memory are
// that workload's alone.
func selfCommand(w string, o options, extra ...string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, append([]string{"-workload", w, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace}, extra...)...)
	cmd.Stderr = os.Stderr
	return cmd
}

// child runs one workload in a child process and reads its record.
func child(w string, o options) (*report, error) {
	out, runErr := selfCommand(w, o).Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: no result (%v)", w, runErr)
	}
	rep := &report{}
	if err := json.Unmarshal(lines[len(lines)-2], rep); err != nil {
		return nil, fmt.Errorf("%s: unreadable record: %v", w, err)
	}
	if !rep.Correct {
		return rep, fmt.Errorf("%s: %s", w, strings.Join(rep.Errors, "; "))
	}
	return rep, runErr
}

// runAll prints every end-to-end and per-layer metric of every
// workload by name, with its unit.
func runAll(o options) error {
	for _, w := range workloads() {
		for _, o.trace = range []bool{false, true} {
			rep, err := child(w.name, o)
			if err != nil {
				return err
			}
			if !o.trace {
				fmt.Printf("\n%s  seed=%d gomaxprocs=%d clients=%d jobs/pass=%d passes=%d setups=%d lines_digest=%s",
					rep.Workload, rep.Seed, rep.Gomaxprocs, rep.Clients, rep.JobsPerPass, len(rep.Passes), len(rep.Setups), rep.LinesDigest[:12])
				if rep.StateFS != "" {
					fmt.Printf(" state=%q", rep.StateFS)
				}
				fmt.Printf("\n  end to end (median of %d passes; %d jobs attempted, %d failed)\n", len(rep.Passes), rep.Attempted, rep.Failed)
			} else {
				fmt.Printf("  per layer (one traced pass and probes; trace in %s)\n", rep.TraceFile)
			}
			names := make([]string, 0, len(rep.Metrics))
			for n := range rep.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("    %-40s %16.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
			}
		}
	}
	return nil
}
