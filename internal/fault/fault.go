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

// Injector applies a set of faults to a machine.
type Injector struct {
	faults []Fault
	// Applied counts the cycles on which each fault actually modified
	// the value (a stuck-at that agrees with the fault-free value
	// does not count).
	Applied []int64
}

// Inject validates the faults and registers the injector on m. Only
// memory components can be faulted (combinational outputs are
// recomputed from registers every cycle, so register faults subsume
// them at this abstraction level).
func Inject(m *sim.Machine, faults ...Fault) (*Injector, error) {
	layout := m.Layout()
	for _, f := range faults {
		if _, ok := layout.Memory(f.Component); !ok {
			return nil, fmt.Errorf("fault: <%s> is not a memory output", f.Component)
		}
		if f.Bit < 0 || f.Bit > numlit.MaxBits {
			return nil, fmt.Errorf("fault: bit %d out of range 0..%d", f.Bit, numlit.MaxBits)
		}
		if f.Kind != Flip && f.Until < f.From {
			return nil, fmt.Errorf("fault: empty cycle window %d..%d", f.From, f.Until)
		}
	}
	inj := &Injector{faults: faults, Applied: make([]int64, len(faults))}
	m.AfterCommit(inj.apply)
	return inj, nil
}

func (inj *Injector) apply(m *sim.Machine) {
	// AfterCommit runs with Cycle() already advanced; the value now in
	// the register is the one cycle Cycle()-1 produced and cycle
	// Cycle() will consume. We key the window on the consuming cycle.
	consuming := m.Cycle()
	for i, f := range inj.faults {
		active := false
		switch f.Kind {
		case Flip:
			active = consuming == f.From
		default:
			active = consuming >= f.From && consuming <= f.Until
		}
		if !active {
			continue
		}
		v := m.Value(f.Component)
		bit := int64(1) << uint(f.Bit)
		var nv int64
		switch f.Kind {
		case StuckAt0:
			nv = v &^ bit
		case StuckAt1:
			nv = v | bit
		case Flip:
			nv = v ^ bit
		}
		if nv != v {
			m.SetValue(f.Component, nv)
			inj.Applied[i]++
		}
	}
}

// CampaignResult is one run of a fault campaign. The campaign driver
// itself lives in internal/campaign (RunFaults), which shards the
// golden run and every faulted run across a worker pool; this package
// keeps only the fault model and the injection mechanism.
type CampaignResult struct {
	Fault     Fault
	Activated int64 // cycles on which the fault changed a value
	Failed    bool  // run outcome differed from the fault-free run
	Err       error // runtime error triggered by the fault, if any
}
