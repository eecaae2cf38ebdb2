package campaign

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machines"
	"repro/internal/sim"
	"repro/internal/specgen"
)

// Params parameterizes a scenario build. Zero values select per-
// scenario defaults, so Params{} always builds something sensible.
type Params struct {
	N       int          // fleet size / sweep width
	Cycles  int64        // per-run cycle budget
	Backend core.Backend // primary backend for single-backend scenarios
	Seed    int64        // base seed for generated specifications
	Size    int          // machine size parameter (sieve flags array)
}

func (p Params) n(def int) int {
	if p.N > 0 {
		return p.N
	}
	return def
}

func (p Params) cycles(def int64) int64 {
	if p.Cycles > 0 {
		return p.Cycles
	}
	return def
}

func (p Params) backend() core.Backend {
	if p.Backend != "" {
		return p.Backend
	}
	return core.Compiled
}

func (p Params) size(def int) int {
	if p.Size > 0 {
		return p.Size
	}
	return def
}

// Scenario is a named, parameterized campaign constructor — the
// pacer-model pattern of a registry of named workloads a sweep tool
// can enumerate and run.
type Scenario struct {
	Name  string
	Desc  string
	Build func(p Params) ([]Run, error)

	// FaultCampaign marks scenarios whose divergences and runtime
	// errors are the findings being hunted (corrupted outcomes), not
	// simulator failures. Consumers gating on a clean campaign —
	// asimsweep's exit code does — skip such scenarios' divergence
	// and error counts.
	FaultCampaign bool
}

var (
	registryMu sync.Mutex
	registry   = map[string]Scenario{}
)

// Register adds a scenario; duplicate names panic (registration is an
// init-time programming act, not a runtime condition).
func Register(s Scenario) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("campaign: duplicate scenario %q", s.Name))
	}
	registry[s.Name] = s
}

// Lookup returns a registered scenario.
func Lookup(name string) (Scenario, bool) {
	registryMu.Lock()
	defer registryMu.Unlock()
	s, ok := registry[name]
	return s, ok
}

// Names lists the registered scenarios, sorted.
func Names() []string {
	registryMu.Lock()
	defer registryMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func parse(name, src string) (*core.Spec, error) {
	spec, err := core.ParseString(name, src)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %v", name, err)
	}
	return spec, nil
}

// compileProgram parses and compiles a scenario's spec once; the
// resulting program is shared by every run the scenario builds.
func compileProgram(name, src string, b core.Backend) (*core.Program, error) {
	spec, err := parse(name, src)
	if err != nil {
		return nil, err
	}
	p, err := core.Compile(spec, b)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %v", name, err)
	}
	return p, nil
}

func init() {
	Register(Scenario{
		Name: "sieve-fleet",
		Desc: "N independent copies of the microcoded sieve stack machine (Figure 5.1's workload as a throughput fleet)",
		Build: func(p Params) ([]Run, error) {
			src, err := machines.SieveSpec(p.size(48))
			if err != nil {
				return nil, err
			}
			prog, err := compileProgram("sieve", src, p.backend())
			if err != nil {
				return nil, err
			}
			return Fleet("sieve", prog, p.n(8), p.cycles(6000)), nil
		},
	})

	Register(Scenario{
		Name: "sieve-backends",
		Desc: "the sieve machine on every backend, cross-checked for bit-identical state",
		Build: func(p Params) ([]Run, error) {
			src, err := machines.SieveSpec(p.size(48))
			if err != nil {
				return nil, err
			}
			spec, err := parse("sieve", src)
			if err != nil {
				return nil, err
			}
			return BackendFleet("sieve", spec, core.Backends(), p.cycles(6000))
		},
	})

	Register(Scenario{
		Name: "ibsm-backends",
		Desc: "the thesis' own Itty Bitty Stack Machine (Appendix E) on every backend, full 5545-cycle run",
		Build: func(p Params) ([]Run, error) {
			spec, err := parse("ibsm1986", machines.IBSM1986())
			if err != nil {
				return nil, err
			}
			return BackendFleet("ibsm1986", spec, core.Backends(), p.cycles(machines.IBSM1986Cycles))
		},
	})

	Register(Scenario{
		Name: "randspec-sweep",
		Desc: "N generated specifications (seeds Seed..Seed+N-1), each cross-checked on interp, bytecode and compiled",
		Build: func(p Params) ([]Run, error) {
			return Sweep(specgen.Config{Combs: 16, Mems: 3},
				[]core.Backend{core.Interp, core.Bytecode, core.Compiled},
				p.Seed, p.n(8), p.cycles(500))
		},
	})

	Register(Scenario{
		Name:          "tiny-divide-faults",
		Desc:          "fault-injection campaign over the Appendix F tiny computer's divider: transient flips across the accumulator plus stuck borrow/pc faults",
		FaultCampaign: true,
		Build: func(p Params) ([]Run, error) {
			src, err := machines.TinyComputer(machines.TinyDivideImage(47, 5))
			if err != nil {
				return nil, err
			}
			prog, err := compileProgram("tinycpu", src, p.backend())
			if err != nil {
				return nil, err
			}
			digest := func(m sim.Cells) string {
				return fmt.Sprintf("q=%d r=%d", m.MemCell("memory", 32), m.MemCell("memory", 30))
			}
			var faults []fault.Fault
			for bit := 0; bit < p.n(10); bit++ {
				for _, cyc := range []int64{43, 155, 299} {
					faults = append(faults, fault.Fault{Component: "ac", Bit: bit, Kind: fault.Flip, From: cyc})
				}
			}
			faults = append(faults,
				fault.Fault{Component: "borrow", Bit: 0, Kind: fault.StuckAt1, From: 0, Until: 1 << 30},
				fault.Fault{Component: "borrow", Bit: 0, Kind: fault.StuckAt0, From: 0, Until: 1 << 30},
				fault.Fault{Component: "pc", Bit: 3, Kind: fault.Flip, From: 200},
			)
			return FaultRuns("tiny-divide", prog, p.cycles(2000), digest, faults), nil
		},
	})
}
