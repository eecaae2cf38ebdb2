package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/specgen"
)

// Fleet builds n identical runs of one compiled program — the
// throughput workload. The program is shared by reference: the fleet
// pays for compilation once, and the engine's workers reuse pooled
// gangs across members. All members share one comparison group: a
// fleet of identical deterministic machines must agree, so any
// divergence in the summary flags a simulator bug.
func Fleet(name string, p *core.Program, n int, cycles int64) []Run {
	return AppendFleet(nil, name, p, n, cycles)
}

// AppendFleet is Fleet appending the n runs to dst, so a caller that
// builds fleet after fleet reuses one run slice: only the members'
// names, one string for all of them, are allocated when dst has room.
func AppendFleet(dst []Run, name string, p *core.Program, n int, cycles int64) []Run {
	// Member i is named name#i. The names are rendered into one string;
	// each run's name is a substring of it.
	digits := 1
	for d := 10; d < n; d *= 10 {
		digits++
	}
	var sb strings.Builder
	sb.Grow(n * (len(name) + 1 + digits))
	var num [20]byte
	for i := range n {
		sb.WriteString(name)
		sb.WriteByte('#')
		sb.Write(strconv.AppendInt(num[:0], int64(i), 10))
	}
	names := sb.String()
	dst = slices.Grow(dst, n)
	at, width, wider := 0, len(name)+2, 10 // member i's name is width bytes while i < wider
	for i := range n {
		if i == wider {
			width, wider = width+1, wider*10
		}
		dst = append(dst, Run{
			Name:    names[at : at+width],
			Group:   name,
			Program: p,
			Cycles:  cycles,
		})
		at += width
	}
	return dst
}

// BackendFleet compiles the spec once per backend and builds one run
// each, all in one comparison group — §2.3.2's multi-level
// verification as a campaign: every backend must reach bit-identical
// state.
func BackendFleet(name string, spec *core.Spec, backends []core.Backend, cycles int64) ([]Run, error) {
	runs := make([]Run, len(backends))
	for i, b := range backends {
		p, err := core.Compile(spec, b)
		if err != nil {
			return nil, fmt.Errorf("fleet %s: %v", name, err)
		}
		runs[i] = Run{
			Name:    fmt.Sprintf("%s/%s", name, b),
			Group:   name,
			Program: p,
			Cycles:  cycles,
		}
	}
	return runs, nil
}

// Sweep generates n random specifications (seeds seed..seed+n-1, via
// internal/specgen) and builds a cross-backend comparison group for
// each — the fuzz-ish equivalence corpus at campaign scale.
func Sweep(cfg specgen.Config, backends []core.Backend, seed int64, n int, cycles int64) ([]Run, error) {
	var runs []Run
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		src := specgen.Generate(rand.New(rand.NewSource(s)), cfg)
		name := fmt.Sprintf("rand%d", s)
		spec, err := core.ParseString(name, src)
		if err != nil {
			return nil, fmt.Errorf("sweep: seed %d: %v", s, err)
		}
		group, err := BackendFleet(name, spec, backends, cycles)
		if err != nil {
			return nil, fmt.Errorf("sweep: seed %d: %v", s, err)
		}
		runs = append(runs, group...)
	}
	return runs, nil
}

// WarmStart is a lazily-computed shared snapshot a set of runs starts
// from. The first worker to need it simulates the program's fault-free
// prefix once and snapshots the state; every run thereafter restores
// the snapshot instead of re-simulating those cycles. A prefix that
// itself fails (a runtime error before the snapshot point) poisons the
// warm start, and every run degrades to an equivalent cold start.
type WarmStart struct {
	program *core.Program
	cycles  int64

	once  sync.Once
	state []byte
	err   error
}

// NewWarmStart prepares a warm start at cycles cycles of the program's
// fault-free execution. Nothing is simulated until a run first needs
// the snapshot.
func NewWarmStart(p *core.Program, cycles int64) *WarmStart {
	return &WarmStart{program: p, cycles: cycles}
}

// WarmStartFromState wraps an existing Machine.SaveState-format
// snapshot — a durable checkpoint, a lane snapshot, a transferred
// state — as a warm start at the given absolute cycle. Nothing is
// simulated: runs restore the bytes as-is. The snapshot must belong to
// the program (same specification shape) and cycle must be the cycle
// counter it was saved at; a mismatch degrades affected runs to a
// cold start, which re-executes from power-on and stays correct. The
// cycle is checked here, against the snapshot's framed cycle
// (sim.SnapshotCycle): a run restored at one cycle must not count its
// remaining budget from another.
func WarmStartFromState(p *core.Program, cycle int64, state []byte) *WarmStart {
	ws := &WarmStart{program: p, cycles: cycle, state: state}
	ws.once.Do(func() { // the snapshot is already materialized
		if framed, err := sim.SnapshotCycle(state); err != nil || framed != cycle {
			ws.err = fmt.Errorf("campaign: warm-start state is not a snapshot at cycle %d", cycle)
		}
	})
	return ws
}

// warmState returns the snapshot a run restores instead of simulating
// its prefix, simulating the shared prefix on first use, or nil for a
// cold start. Any failure — a prefix that itself hits a runtime error,
// a WarmStart misattached to a different program or longer than the
// run's budget — degrades to a cold start, which is always correct
// (the run just re-simulates the prefix, reproducing any error itself).
func (r *Run) warmState() []byte {
	ws := r.Warm
	if ws == nil || ws.program != r.Program || ws.cycles <= 0 || ws.cycles > r.Cycles {
		return nil
	}
	ws.once.Do(func() {
		g, _ := ws.program.NewGang(1) // one lane runs on any program
		g.Reset([]int64{ws.cycles})
		g.Step(ws.cycles)
		if ws.err = g.LaneErr(0); ws.err == nil {
			ws.state = g.SaveLaneState(0)
		}
	})
	if ws.err != nil {
		return nil
	}
	return ws.state
}

// FaultRuns builds a fault campaign: run 0 is the fault-free golden
// run, runs 1..len(faults) inject one fault each. All runs share one
// group keyed to the golden digest, so Summarize's divergence count is
// exactly the number of corrupted runs.
//
// Every run — the golden run included — warm-starts from one shared
// snapshot of the golden prefix, taken just before the earliest
// fault's activation window, so the campaign simulates the shared
// prefix once instead of once per run. Results are byte-identical to
// cold-starting every run, because no fault can act inside the prefix.
func FaultRuns(name string, p *core.Program, cycles int64, digest func(sim.Cells) string, faults []fault.Fault) []Run {
	warm := warmStartForFaults(p, cycles, faults)
	runs := make([]Run, 0, len(faults)+1)
	runs = append(runs, Run{Name: name + "/golden", Group: name, Program: p, Cycles: cycles, Digest: digest, Warm: warm})
	for _, f := range faults {
		runs = append(runs, Run{
			Name:    fmt.Sprintf("%s/%s", name, f),
			Group:   name,
			Program: p,
			Cycles:  cycles,
			Digest:  digest,
			Faults:  []fault.Fault{f},
			Warm:    warm,
		})
	}
	return runs
}

// warmStartForFaults picks the longest golden prefix no fault can
// observe. A fault first modifies state when the machine's cycle
// counter reaches its From cycle at the post-commit injection point
// (see sim.Fault), and the counter only takes values >= 1 there,
// so a prefix of min over faults of max(From,1)-1 cycles is invisible
// to every fault. Returns nil when that prefix is empty.
func warmStartForFaults(p *core.Program, cycles int64, faults []fault.Fault) *WarmStart {
	prefix := cycles // the prefix cannot exceed the cycle budget
	for _, f := range faults {
		first := f.From
		if first < 1 {
			first = 1
		}
		if first-1 < prefix {
			prefix = first - 1
		}
	}
	if prefix <= 0 {
		return nil
	}
	return NewWarmStart(p, prefix)
}

// RunFaults executes a fault campaign through the engine: one
// fault-free golden run plus one run per fault, compared by a
// caller-supplied outcome digest. It reproduces the thesis' "if a
// catastrophic failure occurs on a certain type of fault, additional
// design work is necessary" workflow — the parallel successor of the
// serial loop internal/fault used to carry.
func RunFaults(ctx context.Context, eng Engine, p *core.Program, cycles int64, digest func(sim.Cells) string, faults []fault.Fault) ([]fault.CampaignResult, string, error) {
	results, err := eng.Execute(ctx, FaultRuns("faults", p, cycles, digest, faults))
	if err != nil {
		return nil, "", err
	}
	golden := results[0]
	if golden.Err != nil {
		return nil, "", fmt.Errorf("fault-free run failed: %v", golden.Err)
	}
	out := make([]fault.CampaignResult, 0, len(faults))
	for i, r := range results[1:] {
		// A nil Activated slice means the machine was never built or
		// the fault never validated — a campaign configuration error,
		// not a design-corruption finding.
		if r.Activated == nil {
			return nil, "", fmt.Errorf("fault run %s: %v", r.Name, r.Err)
		}
		cr := fault.CampaignResult{Fault: faults[i], Activated: r.Activated[0], Err: r.Err}
		cr.Failed = r.Err != nil || r.Digest != golden.Digest
		out = append(out, cr)
	}
	return out, golden.Digest, nil
}
