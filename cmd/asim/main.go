// Command asim simulates an ASIM II specification file — the
// reproduction's counterpart of the original "sim [file]" tool, with
// the backend, cycle count, tracing, statistics, VCD dumping and fault
// injection exposed as flags.
//
//	asim -backend compiled -cycles 100 -trace spec.sim
//	asim -vcd out.vcd -signals pc,ac spec.sim
//	asim -fault 'count:0:stuck1:0:50' spec.sim
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	asim2 "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/vcd"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is one simulation; its deferred cleanup — the VCD dump's flush
// and close — runs on every exit path, so a run that faults still
// leaves a complete dump up to the faulting cycle.
func run() (err error) {
	var backends []string
	for _, b := range asim2.Backends() {
		backends = append(backends, string(b))
	}
	backend := flag.String("backend", string(asim2.Compiled), "execution backend: "+strings.Join(backends, ", ")+" ("+string(asim2.CompiledAOT)+" is an alias of "+string(asim2.Compiled)+")")
	cycles := flag.Int64("cycles", 0, "cycles to run (default: the spec's '=' count, else 100)")
	trace := flag.Bool("trace", true, "print the per-cycle trace of '*'-marked signals")
	stats := flag.Bool("stats", false, "print execution statistics")
	vcdPath := flag.String("vcd", "", "write a VCD waveform to this file")
	signals := flag.String("signals", "", "comma-separated VCD signals (default: traced names)")
	faultSpecs := flag.String("fault", "", "inject faults: comp:bit:kind:from[:until][,...] with kind stuck0|stuck1|flip")
	warn := flag.Bool("warnings", true, "print analyzer warnings")
	interactive := flag.Bool("interactive", false, "after the cycles run, prompt 'Continue to cycle (0 to quit)' as the original simulator did")
	extended := flag.Bool("modules", false, "accept the module dialect (D/E/U, the section 5.4 extension)")
	flag.Parse()

	if flag.NArg() != 1 {
		return errors.New("usage: asim [flags] spec.sim")
	}
	var spec *asim2.Spec
	if *extended {
		data, rerr := os.ReadFile(flag.Arg(0))
		if rerr != nil {
			return rerr
		}
		spec, err = core.ParseExtendedString(flag.Arg(0), string(data))
	} else {
		spec, err = asim2.ParseFile(flag.Arg(0))
	}
	if err != nil {
		return err
	}
	if *warn {
		for _, w := range spec.Warnings() {
			fmt.Fprintln(os.Stderr, "warning:", w)
		}
	}

	opts := asim2.Options{Input: os.Stdin, Output: os.Stdout}
	if *trace {
		opts.Trace = os.Stdout
	}
	m, err := asim2.NewMachine(spec, asim2.Backend(*backend), opts)
	if err != nil {
		return err
	}

	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			return err
		}
		var sigs []string
		if *signals != "" {
			sigs = strings.Split(*signals, ",")
		}
		d, err := vcd.Attach(m, f, sigs)
		if err != nil {
			f.Close()
			return err
		}
		defer func() {
			// The run's own error comes first, then any failure to
			// flush or close the dump.
			err = errors.Join(err, d.Close(), f.Close())
		}()
	}

	if *faultSpecs != "" {
		faults, err := parseFaults(*faultSpecs)
		if err != nil {
			return err
		}
		recs, err := fault.Lower(m.Layout(), faults)
		if err != nil {
			return err
		}
		m.SetFaults(recs, make([]int64, len(recs)))
	}

	n := *cycles
	if n == 0 {
		n = spec.DefaultCycles(100)
	}
	if err := m.Run(n); err != nil {
		return err
	}

	// The original simulator's continuation loop: "Continue to cycle
	// (0 to quit)".
	for *interactive {
		fmt.Println("Continue to cycle (0 to quit)")
		var target int64
		if _, err := fmt.Scan(&target); err != nil || target <= m.Cycle() {
			break
		}
		if err := m.Run(target - m.Cycle()); err != nil {
			return err
		}
	}

	if *stats {
		var names []string
		for _, mem := range spec.Info.Mems {
			names = append(names, mem.Name)
		}
		fmt.Fprint(os.Stderr, m.Stats().Report(names))
	}
	return nil
}

// parseFaults decodes comp:bit:kind:from[:until] descriptors.
func parseFaults(s string) ([]fault.Fault, error) {
	var out []fault.Fault
	for _, item := range strings.Split(s, ",") {
		parts := strings.Split(item, ":")
		if len(parts) < 4 {
			return nil, fmt.Errorf("fault %q: want comp:bit:kind:from[:until]", item)
		}
		f := fault.Fault{Component: parts[0]}
		bit, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("fault %q: bad bit: %v", item, err)
		}
		f.Bit = bit
		switch parts[2] {
		case "stuck0":
			f.Kind = fault.StuckAt0
		case "stuck1":
			f.Kind = fault.StuckAt1
		case "flip":
			f.Kind = fault.Flip
		default:
			return nil, fmt.Errorf("fault %q: kind must be stuck0, stuck1 or flip", item)
		}
		from, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault %q: bad from-cycle: %v", item, err)
		}
		f.From = from
		f.Until = from
		if len(parts) >= 5 {
			until, err := strconv.ParseInt(parts[4], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault %q: bad until-cycle: %v", item, err)
			}
			f.Until = until
		} else if f.Kind != fault.Flip {
			f.Until = 1 << 60
		}
		out = append(out, f)
	}
	return out, nil
}
