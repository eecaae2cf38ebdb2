// Package fault implements the design-verification technique §2.3.2
// of the thesis describes: "fault injection, the process of inserting
// a fault in the specification to cause errors (by design) in the
// simulation run", used to judge how a design degrades under
// hardware faults.
//
// Faults attach to memory outputs — the flip-flops and RAM output
// registers of the design — which is the classic register-level fault
// model: a stuck-at fault pins one bit of a register for a cycle
// window, and a transient fault (single-event upset) flips a bit once.
// The override is applied after each cycle's commit, so every consumer
// observes the faulted value on the following cycle.
//
// This package holds the fault models and lowers them (Lower) to
// sim.Fault records — an AND/OR/XOR mask on one register over a window
// of cycles — which sim applies itself, for a machine and for each
// lane of a gang, so a fault campaign runs on the same rungs as any
// other campaign. Fault campaigns themselves are built and run by
// internal/campaign (FaultRuns, RunFaults).
package fault

import (
	"fmt"

	"repro/internal/rtl/numlit"
	"repro/internal/sim"
)

// Kind is a fault model.
type Kind int

const (
	// StuckAt0 pins the target bit to 0 for the cycle window.
	StuckAt0 Kind = iota
	// StuckAt1 pins the target bit to 1 for the cycle window.
	StuckAt1
	// Flip inverts the target bit once, at cycle From (a transient
	// single-event upset).
	Flip
)

func (k Kind) String() string {
	switch k {
	case StuckAt0:
		return "stuck-at-0"
	case StuckAt1:
		return "stuck-at-1"
	case Flip:
		return "transient-flip"
	default:
		return "unknown"
	}
}

// Fault describes one injected fault.
type Fault struct {
	Component string // memory whose output register is faulted
	Bit       int    // 0-based bit position
	Kind      Kind
	From      int64 // first cycle the fault is active
	Until     int64 // last cycle (inclusive); ignored for Flip
}

func (f Fault) String() string {
	if f.Kind == Flip {
		return fmt.Sprintf("%s bit %d of <%s> at cycle %d", f.Kind, f.Bit, f.Component, f.From)
	}
	return fmt.Sprintf("%s bit %d of <%s> cycles %d..%d", f.Kind, f.Bit, f.Component, f.From, f.Until)
}

// Check reports the first of the faults that does not fit the layout.
// Only memory components can be faulted (combinational outputs are
// recomputed from registers every cycle, so register faults subsume
// them at this abstraction level).
func Check(layout *sim.Layout, faults []Fault) error {
	for _, f := range faults {
		if _, ok := layout.Memory(f.Component); !ok {
			return fmt.Errorf("fault: <%s> is not a memory output", f.Component)
		}
		if f.Bit < 0 || f.Bit > numlit.MaxBits {
			return fmt.Errorf("fault: bit %d out of range 0..%d", f.Bit, numlit.MaxBits)
		}
		if f.Kind != Flip && f.Until < f.From {
			return fmt.Errorf("fault: empty cycle window %d..%d", f.From, f.Until)
		}
	}
	return nil
}

// Lower checks the faults against the layout and lowers each to the
// sim.Fault record a Machine (SetFaults) or a gang lane
// (SetLaneFaults) applies after every commit: a mask on the memory's
// output register over the fault's window of consuming cycles.
func Lower(layout *sim.Layout, faults []Fault) ([]sim.Fault, error) {
	if err := Check(layout, faults); err != nil {
		return nil, err
	}
	recs := make([]sim.Fault, len(faults))
	for i, f := range faults {
		slot, _ := layout.Slot(f.Component)
		bit := int64(1) << uint(f.Bit)
		recs[i] = sim.Fault{Slot: slot, From: f.From, Until: f.Until}
		// An unknown kind keeps And 0: it clears the register.
		switch r := &recs[i]; f.Kind {
		case StuckAt0:
			r.And = ^bit
		case StuckAt1:
			r.And, r.Or = -1, bit
		case Flip:
			r.And, r.Xor, r.Until = -1, bit, f.From
		}
	}
	return recs, nil
}

// CampaignResult is one run of a fault campaign. The campaign driver
// itself lives in internal/campaign (RunFaults), which shards the
// golden run and every faulted run across a worker pool; this package
// keeps only the fault models and their lowering.
type CampaignResult struct {
	Fault     Fault
	Activated int64 // cycles on which the fault changed a value
	Failed    bool  // run outcome differed from the fault-free run
	Err       error // runtime error triggered by the fault, if any
}
