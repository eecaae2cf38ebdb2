// Command faultcampaign demonstrates §2.3.2's design-verification
// workflow at campaign scale: it runs the tiny computer's divider once
// fault-free, then once per injected register fault — sharded across
// the campaign engine's worker pool — and reports which faults corrupt
// the result. "If a catastrophic failure occurs on a certain type of
// fault, additional design work is necessary."
//
//	go run ./examples/faultcampaign
//	go run ./examples/faultcampaign -workers 8
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	asim2 "repro"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/machines"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	workers := flag.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS)")
	flag.Parse()

	src, err := machines.TinyComputer(machines.TinyDivideImage(47, 5))
	if err != nil {
		log.Fatal(err)
	}
	spec, err := asim2.ParseString("tinycpu", src)
	if err != nil {
		log.Fatal(err)
	}
	// Compile once: every run of the campaign — golden and faulted —
	// shares this one program, and the engine steps the runs as lanes
	// of gangs pooled by it. The digest reads each run's final state in
	// place, through the lane's sim.Cells view.
	prog, err := asim2.Compile(spec, asim2.Compiled)
	if err != nil {
		log.Fatal(err)
	}
	digest := func(m sim.Cells) string {
		return fmt.Sprintf("q=%d r=%d", m.MemCell("memory", 32), m.MemCell("memory", 30))
	}

	var faults []fault.Fault
	// Sweep transient flips over every bit of the accumulator and the
	// borrow flag at several points of the run, plus a few stuck-ats.
	for bit := 0; bit < 10; bit++ {
		for _, cyc := range []int64{43, 155, 299} {
			faults = append(faults, fault.Fault{Component: "ac", Bit: bit, Kind: fault.Flip, From: cyc})
		}
	}
	faults = append(faults,
		fault.Fault{Component: "borrow", Bit: 0, Kind: fault.StuckAt1, From: 0, Until: 1 << 30},
		fault.Fault{Component: "borrow", Bit: 0, Kind: fault.StuckAt0, From: 0, Until: 1 << 30},
		fault.Fault{Component: "pc", Bit: 3, Kind: fault.Flip, From: 200},
	)

	eng := campaign.Engine{Workers: *workers}
	results, golden, err := campaign.RunFaults(context.Background(), eng, prog, 2000, digest, faults)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-free outcome: %s\n\n", golden)
	failures := 0
	for _, r := range results {
		status := "ok      "
		if r.Failed {
			status = "CORRUPT "
			failures++
		}
		detail := ""
		if r.Err != nil {
			detail = " (" + r.Err.Error() + ")"
		}
		fmt.Printf("%s %-45s activated %3d cycle(s)%s\n", status, r.Fault, r.Activated, detail)
	}
	fmt.Printf("\n%d/%d faults corrupted the computation\n", failures, len(results))
}
