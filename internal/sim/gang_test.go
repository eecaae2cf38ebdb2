package sim_test

// Gang/scalar equivalence: a gang lane must be observationally
// identical to a stand-alone machine running the same program for the
// same cycle budget — same architectural state hash, same statistics,
// same runtime error at the same cycle — including gangs whose lanes
// halt at different cycles and lanes that fault out mid-gang, and
// lane snapshots must interoperate bit-for-bit with machine snapshots.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/allocpin"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machines"
	"repro/internal/sim"
	"repro/internal/specgen"
)

// scalarOutcome is everything a gang lane must reproduce, captured by
// scalarRun from a fresh machine run for budget cycles with the given
// faults.
type scalarOutcome struct {
	hash      uint64
	cycles    int64
	stats     sim.Stats
	errstr    string
	activated []int64 // per fault record; nil without faults
}

func scalarRun(t *testing.T, p *core.Program, budget int64, faults ...fault.Fault) scalarOutcome {
	t.Helper()
	m := p.NewMachine(core.Options{})
	recs, hits := lower(t, p, faults)
	m.SetFaults(recs, hits)
	var errstr string
	if err := m.Run(budget); err != nil {
		errstr = err.Error()
	}
	return scalarOutcome{hash: m.ArchHash(), cycles: m.Cycle(), stats: m.Stats(), errstr: errstr, activated: append([]int64(nil), hits...)}
}

// laneStats is lane l's statistics in a block of their own.
func laneStats(g *sim.Gang, l int) sim.Stats {
	s, _ := g.AppendLaneStats(l, nil)
	return s
}

// requireGangEquivalence steps one gang with the given per-lane
// budgets and checks every lane — and the compiled scalar path —
// against the interpreter, which shares no code with the compiled
// kernels' lowering: a lowering bug cannot hide as common mode.
func requireGangEquivalence(t *testing.T, name, src string, budgets []int64) {
	t.Helper()
	spec, err := core.ParseString(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v\n%s", name, err, src)
	}
	ref, err := core.Compile(spec, core.Interp)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := p.NewGang(len(budgets))
	if !ok {
		t.Fatalf("%s: compiled program is not gang-capable", name)
	}
	g.Reset(budgets)
	// Step in deliberately odd chunks to exercise partial progress.
	for g.Step(7) {
	}
	for l, budget := range budgets {
		want := scalarRun(t, ref, budget)
		label := fmt.Sprintf("%s lane %d (budget %d)", name, l, budget)
		if got := scalarRun(t, p, budget); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: compiled scalar %+v, interp has %+v\nspec:\n%s", label, got, want, src)
		}
		var errstr string
		if err := g.LaneErr(l); err != nil {
			errstr = err.Error()
		}
		if errstr != want.errstr {
			t.Errorf("%s: err %q, interp has %q", label, errstr, want.errstr)
		}
		if got := g.LaneCycle(l); got != want.cycles {
			t.Errorf("%s: cycle %d, interp has %d", label, got, want.cycles)
		}
		if got := g.LaneArchHash(l); got != want.hash {
			t.Errorf("%s: arch hash %016x, interp has %016x\nspec:\n%s", label, got, want.hash, src)
		}
		if got := laneStats(g, l); !reflect.DeepEqual(got, want.stats) {
			t.Errorf("%s: stats %+v, interp has %+v", label, got, want.stats)
		}
	}
}

// mixedBudgets returns deliberately divergent per-lane cycle budgets
// around a base, including a zero-cycle lane and an immediate-halt
// neighborhood, so lanes retire throughout the gang's run.
func mixedBudgets(base int64, lanes int) []int64 {
	budgets := make([]int64, lanes)
	for l := range budgets {
		switch l % 4 {
		case 0:
			budgets[l] = base
		case 1:
			budgets[l] = base / 2
		case 2:
			budgets[l] = int64(l)
		default:
			budgets[l] = base + int64(7*l)
		}
	}
	return budgets
}

// TestGangEquivalenceTestdata covers the canonical machines with
// mixed halt cycles.
func TestGangEquivalenceTestdata(t *testing.T) {
	td, err := machines.Testdata()
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range td {
		t.Run(name, func(t *testing.T) {
			requireGangEquivalence(t, name, src, mixedBudgets(512, 8))
		})
	}
}

// TestGangEquivalenceRandom sweeps generated specifications, which
// exercise per-lane runtime faults (selector and address errors)
// through the gang path: every lane of an identical-program gang hits
// the same error at the same cycle its scalar machine does.
func TestGangEquivalenceRandom(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	for seed := 0; seed < n; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			src := specgen.Generate(rng, specgen.Config{
				Combs: 1 + rng.Intn(16),
				Mems:  1 + rng.Intn(4),
			})
			requireGangEquivalence(t, fmt.Sprintf("seed%d", seed), src, mixedBudgets(96, 6))
		})
	}
}

// TestGangCapability pins which backends gang: the compiled family
// (ablations included) does, the others fall back.
func TestGangCapability(t *testing.T) {
	spec, err := core.ParseString("c", "#c\nc .\nA c 1 0 1\n.")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range core.Backends() {
		p, err := core.Compile(spec, b)
		if err != nil {
			t.Fatal(err)
		}
		wantGang := b == core.Compiled || b == core.CompiledNoFold || b == core.CompiledNoBitpar
		if got := p.GangCapable(); got != wantGang {
			t.Errorf("backend %s: GangCapable = %v, want %v", b, got, wantGang)
		}
		g, ok := p.NewGang(4)
		if ok != wantGang {
			t.Errorf("backend %s: NewGang ok = %v, want %v", b, ok, wantGang)
		}
		if ok {
			g.Reset([]int64{16, 16, 16, 16})
			for g.Step(64) {
			}
			if c := g.LaneCycle(0); c != 16 {
				t.Errorf("backend %s: lane 0 ran %d cycles, want 16", b, c)
			}
		}
	}
}

// TestGangNoFoldEquivalence runs the ablation backend's gang kernels
// (built from the unfolded lowering: dologic dispatch per lane, no
// dead-latch elision) against its scalar path.
func TestGangNoFoldEquivalence(t *testing.T) {
	src, err := machines.SieveSpec(16)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseString("sieve", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(spec, core.CompiledNoFold)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int64{300, 150, 75}
	g, ok := p.NewGang(len(budgets))
	if !ok {
		t.Fatal("compiled-nofold program is not gang-capable")
	}
	g.Reset(budgets)
	for g.Step(32) {
	}
	for l, budget := range budgets {
		want := scalarRun(t, p, budget)
		if got := g.LaneArchHash(l); got != want.hash {
			t.Errorf("lane %d: arch hash %016x, scalar has %016x", l, got, want.hash)
		}
		if got := laneStats(g, l); !reflect.DeepEqual(got, want.stats) {
			t.Errorf("lane %d: stats %+v, scalar has %+v", l, got, want.stats)
		}
	}
}

// TestGangBitParallelSelection pins the bit-parallel profitability
// gate: the 1-bit-heavy mixing fabric packs, the word-poor sieve stays
// on the plain lane-loop path, and the nobitpar ablation backend never
// packs.
func TestGangBitParallelSelection(t *testing.T) {
	bitmix, err := core.ParseString("bitmix", machines.BitMixSpec(8, 12))
	if err != nil {
		t.Fatal(err)
	}
	sieveSrc, err := machines.SieveSpec(16)
	if err != nil {
		t.Fatal(err)
	}
	sieve, err := core.ParseString("sieve", sieveSrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		spec    *core.Spec
		backend core.Backend
		want    bool
	}{
		{"bitmix/compiled", bitmix, core.Compiled, true},
		{"bitmix/nobitpar", bitmix, core.CompiledNoBitpar, false},
		{"bitmix/nofold", bitmix, core.CompiledNoFold, false},
		{"sieve/compiled", sieve, core.Compiled, false},
	}
	for _, tc := range cases {
		p, err := core.Compile(tc.spec, tc.backend)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.BitGangCapable(); got != tc.want {
			t.Errorf("%s: BitGangCapable = %v, want %v", tc.name, got, tc.want)
		}
		g, ok := p.NewGang(4)
		if !ok {
			t.Fatalf("%s: not gang-capable", tc.name)
		}
		if got := g.BitParallel(); got != tc.want {
			t.Errorf("%s: gang BitParallel = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestGangBitMixEquivalence runs the bit-parallel kernels against the
// scalar path on the workload built for them: mixed budgets retire
// lanes throughout (exercising word-op evaluation over a shrinking
// live span and compaction), and every surviving lane must match its
// scalar reference exactly.
func TestGangBitMixEquivalence(t *testing.T) {
	requireGangEquivalence(t, "bitmix", machines.BitMixSpec(8, 12), mixedBudgets(512, 32))
	requireGangEquivalence(t, "bitmix-thin", machines.BitMixSpec(3, 5), mixedBudgets(300, 7))
}

// TestGangBitLaneSnapshotInterop proves lane snapshots cross the
// bit-parallel boundary: a scalar machine snapshot restores into a
// bit-gang lane (whose planes must repack from the restored columns)
// and both continuations reach identical state.
func TestGangBitLaneSnapshotInterop(t *testing.T) {
	spec, err := core.ParseString("bitmix", machines.BitMixSpec(8, 12))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	const mid, end = 333, 1024

	m := p.NewMachine(core.Options{})
	if err := m.Run(mid); err != nil {
		t.Fatal(err)
	}
	midState := m.SaveState()
	if err := m.Run(end - mid); err != nil {
		t.Fatal(err)
	}
	wantHash := m.ArchHash()

	g, ok := p.NewGang(3)
	if !ok || !g.BitParallel() {
		t.Fatalf("bitmix gang not bit-parallel (ok=%v)", ok)
	}
	g.Reset([]int64{end, end, mid})
	if err := g.RestoreLaneState(1, midState); err != nil {
		t.Fatal(err)
	}
	for g.Step(17) {
	}
	if got := g.LaneArchHash(1); got != wantHash {
		t.Errorf("restored lane: arch hash %016x, scalar has %016x", got, wantHash)
	}
	if got := g.LaneArchHash(0); got != wantHash {
		t.Errorf("cold lane: arch hash %016x, scalar has %016x", got, wantHash)
	}
	// Lane 2 stopped at mid; its snapshot must be byte-identical to the
	// machine's mid-run snapshot.
	if !bytes.Equal(g.SaveLaneState(2), midState) {
		t.Error("mid-run lane snapshot differs from machine snapshot")
	}
}

// TestGangLaneSnapshotInterop proves lane snapshots and machine
// snapshots are the same format with the same semantics: a machine
// mid-run restores into a lane and vice versa, and both continuations
// reach identical state.
func TestGangLaneSnapshotInterop(t *testing.T) {
	src, err := machines.SieveSpec(32)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseString("sieve", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	const mid, end = 777, 2048

	// Scalar reference: run to mid, snapshot, run to end.
	m := p.NewMachine(core.Options{})
	if err := m.Run(mid); err != nil {
		t.Fatal(err)
	}
	midState := m.SaveState()
	if err := m.Run(end - mid); err != nil {
		t.Fatal(err)
	}
	wantHash := m.ArchHash()
	wantStats := m.Stats()

	// Machine snapshot -> lane: restore the mid snapshot into one lane
	// of a running gang and let the gang finish it.
	g, ok := p.NewGang(3)
	if !ok {
		t.Fatal("not gang-capable")
	}
	g.Reset([]int64{end, end, end})
	g.Step(100) // partial progress on every lane
	if err := g.RestoreLaneState(1, midState); err != nil {
		t.Fatalf("RestoreLaneState: %v", err)
	}
	if got := g.LaneCycle(1); got != mid {
		t.Fatalf("restored lane at cycle %d, want %d", got, mid)
	}
	for g.Step(97) {
	}
	for l := 0; l < 3; l++ {
		if got := g.LaneArchHash(l); got != wantHash {
			t.Errorf("lane %d: arch hash %016x, scalar has %016x", l, got, wantHash)
		}
	}
	if got := laneStats(g, 1); !reflect.DeepEqual(got, wantStats) {
		t.Errorf("restored lane stats %+v, scalar has %+v", got, wantStats)
	}

	// Lane snapshot -> machine: a lane paused mid-run saves a snapshot
	// byte-identical to the machine's, and a machine finishes it.
	g2, _ := p.NewGang(2)
	g2.Reset([]int64{mid, mid})
	for g2.Step(64) {
	}
	laneState := g2.SaveLaneState(0)
	if !bytes.Equal(laneState, midState) {
		t.Fatalf("lane snapshot differs from machine snapshot at cycle %d", mid)
	}
	m2 := p.NewMachine(core.Options{})
	if err := m2.RestoreState(laneState); err != nil {
		t.Fatalf("machine RestoreState of lane snapshot: %v", err)
	}
	if err := m2.Run(end - mid); err != nil {
		t.Fatal(err)
	}
	if got := m2.ArchHash(); got != wantHash {
		t.Errorf("machine continuation of lane snapshot: arch hash %016x, want %016x", got, wantHash)
	}

	// Rejection: a corrupt snapshot must not touch lane state.
	bad := append([]byte(nil), laneState...)
	bad[0] ^= 0xff
	before := g2.LaneArchHash(1)
	if err := g2.RestoreLaneState(1, bad); err == nil {
		t.Error("RestoreLaneState accepted a corrupt snapshot")
	}
	if got := g2.LaneArchHash(1); got != before {
		t.Error("rejected snapshot modified lane state")
	}
}

// TestGangFaultedLaneIsolation injects a guaranteed per-lane fault
// (via restored divergent state walking a memory address out of
// range... simpler: a spec whose selector faults at a known cycle) and
// checks the surviving lanes are unaffected by a neighbor's fault.
func TestGangFaultedLaneIsolation(t *testing.T) {
	// The memory counts up each cycle; sel faults once the count
	// exceeds its two cases, at a small fixed cycle.
	src := "#faulty\ninc count sel .\nA inc 4 count 1\nM count 0 inc 1 1\nS sel count 0 1\n.\n"
	spec, err := core.ParseString("faulty", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	// Lane 0 halts before the fault cycle; lanes 1 and 2 run into it.
	budgets := []int64{1, 8, 8}
	g, ok := p.NewGang(len(budgets))
	if !ok {
		t.Fatal("not gang-capable")
	}
	g.Reset(budgets)
	for g.Step(3) {
	}
	if err := g.LaneErr(0); err != nil {
		t.Errorf("halted lane 0 has error %v", err)
	}
	for l := 1; l <= 2; l++ {
		want := scalarRun(t, p, budgets[l])
		if want.errstr == "" {
			t.Fatalf("scalar reference did not fault; test spec is broken")
		}
		err := g.LaneErr(l)
		if err == nil {
			t.Fatalf("lane %d did not fault; scalar has %q", l, want.errstr)
		}
		if err.Error() != want.errstr {
			t.Errorf("lane %d err %q, scalar has %q", l, err.Error(), want.errstr)
		}
		if got := g.LaneArchHash(l); got != want.hash {
			t.Errorf("lane %d arch hash %016x, scalar has %016x", l, got, want.hash)
		}
		if got := laneStats(g, l); !reflect.DeepEqual(got, want.stats) {
			t.Errorf("lane %d stats %+v, scalar has %+v", l, got, want.stats)
		}
	}
	if !g.Done() {
		t.Error("gang not done after all lanes halted or faulted")
	}
}

// TestGangCompactionProperty is the lane-compaction property test:
// lanes retire in randomized orders and cycles while the top lane
// keeps the physical span pinned, forcing compaction mid-run; every
// survivor's hash, statistics, cycle count and SaveLaneState bytes
// must be indistinguishable from a scalar machine that never shared a
// gang. Runs over both the bit-parallel and the plain lane-loop path
// (compaction swaps plane bits in one and only columns in the other).
func TestGangCompactionProperty(t *testing.T) {
	sieveSrc, err := machines.SieveSpec(12)
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]string{
		"bitmix": machines.BitMixSpec(6, 10),
		"sieve":  sieveSrc,
	}
	for name, src := range specs {
		t.Run(name, func(t *testing.T) {
			spec, err := core.ParseString(name, src)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.Compile(spec, core.Compiled)
			if err != nil {
				t.Fatal(err)
			}
			scalarState := func(budget int64) ([]byte, scalarOutcome) {
				m := p.NewMachine(core.Options{})
				var errstr string
				if err := m.Run(budget); err != nil {
					errstr = err.Error()
				}
				return m.SaveState(), scalarOutcome{hash: m.ArchHash(), cycles: m.Cycle(), stats: m.Stats(), errstr: errstr}
			}
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				const lanes = 48
				budgets := make([]int64, lanes)
				for l := range budgets {
					budgets[l] = 1 + rng.Int63n(200) // random retire cycles/orders
				}
				budgets[lanes-1] = 400 // pins the span until compaction moves it
				g, ok := p.NewGang(lanes)
				if !ok {
					t.Fatal("not gang-capable")
				}
				g.Reset(budgets)
				compacted := false
				prevSpan := g.LiveSpan()
				for g.Step(1 + rng.Int63n(40)) {
					if s := g.LiveSpan(); s < prevSpan && !g.Done() {
						compacted = true
					} else {
						prevSpan = g.LiveSpan()
					}
				}
				if !compacted {
					t.Errorf("seed %d: live span never shrank below %d; compaction untested", seed, prevSpan)
				}
				for l, budget := range budgets {
					wantState, want := scalarState(budget)
					if got := g.LaneCycle(l); got != want.cycles {
						t.Fatalf("seed %d lane %d: cycle %d, scalar has %d", seed, l, got, want.cycles)
					}
					if got := g.LaneArchHash(l); got != want.hash {
						t.Fatalf("seed %d lane %d: arch hash %016x, scalar has %016x", seed, l, got, want.hash)
					}
					if got := laneStats(g, l); !reflect.DeepEqual(got, want.stats) {
						t.Fatalf("seed %d lane %d: stats %+v, scalar has %+v", seed, l, got, want.stats)
					}
					if !bytes.Equal(g.SaveLaneState(l), wantState) {
						t.Fatalf("seed %d lane %d: SaveLaneState bytes differ from scalar SaveState", seed, l)
					}
				}
			}
		})
	}
}

// TestGangCommitFaultMemoryOrder pins the memory-major commit's fault
// rule: in one cycle some lanes fault at memory 1 while the others
// commit normally, and a faulted lane keeps memory 0's commit and skips
// memory 2's, exactly like a machine's commit unwinding at memory 1.
// Memory 0 counts cycles, memory 1 reads at the count and faults once
// it passes the last cell, memory 2 records the count. Lanes resume
// from snapshots at different cycles, so they reach the fault cycle at
// different gang cycles. The "moved" gang first retires two low lanes,
// so the fault strikes lanes that compaction has moved.
func TestGangCommitFaultMemoryOrder(t *testing.T) {
	src := "#order\nc m0 m1 m2 .\nA c 4 m0 1\nM m0 0 c 1 1\nM m1 m0 0 0 8\nM m2 0 c 1 1\n.\n"
	spec, err := core.ParseString("order", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(cycles int64) []byte {
		m := p.NewMachine(core.Options{})
		if err := m.Run(cycles); err != nil {
			t.Fatal(err)
		}
		return m.SaveState()
	}
	starts := []int64{0, 5, 2, 5, 0, 7, 3, 5}
	for _, tc := range []struct {
		name    string
		budgets []int64
	}{
		{"in-place", []int64{20, 20, 20, 20, 20, 20, 20, 20}},
		{"moved", []int64{1, 2, 20, 20, 20, 20, 20, 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, ok := p.NewGang(len(starts))
			if !ok {
				t.Fatal("not gang-capable")
			}
			g.Reset(tc.budgets)
			for l, start := range starts {
				if err := g.RestoreLaneState(l, snapshot(start)); err != nil {
					t.Fatal(err)
				}
			}
			// Step one cycle at a time until the first faults, which must
			// leave other lanes healthy and stepping.
			for g.Step(1) {
				faulted := 0
				for l := range starts {
					if g.LaneErr(l) != nil {
						faulted++
					}
				}
				if faulted == 0 {
					continue
				}
				if g.Done() {
					t.Fatal("every lane faulted in the first fault cycle")
				}
				if tc.name == "moved" && g.LiveSpan() >= len(starts)-faulted {
					t.Fatal("no lane retired before the fault cycle; compaction untested")
				}
				break
			}
			for g.Step(64) {
			}
			for l, start := range starts {
				m := p.NewMachine(core.Options{})
				if err := m.RestoreState(snapshot(start)); err != nil {
					t.Fatal(err)
				}
				var want string
				if err := m.Run(tc.budgets[l] - start); err != nil {
					want = err.Error()
				}
				var got string
				if err := g.LaneErr(l); err != nil {
					got = err.Error()
				}
				if got != want {
					t.Errorf("lane %d: err %q, machine has %q", l, got, want)
				}
				if !bytes.Equal(g.SaveLaneState(l), m.SaveState()) {
					t.Errorf("lane %d: snapshot differs from the machine's", l)
				}
				if tc.budgets[l] > 8 && want == "" { // m0 reaches m1's size at cycle 8
					t.Errorf("lane %d: machine did not fault; the spec no longer exercises the commit rule", l)
				}
			}
			// The rule itself, on a faulted lane: memory 0 committed the
			// fault cycle's count (9), memory 2 kept the previous one (8).
			if m0, m2 := g.LaneValue(2, "m0"), g.LaneValue(2, "m2"); m0 != 9 || m2 != 8 {
				t.Errorf("faulted lane 2: m0 = %d, m2 = %d, want 9 and 8", m0, m2)
			}
		})
	}
}

// TestGangStepAllocs pins that stepping a gang allocates nothing, on
// both kernel paths, with staggered budgets so lanes retire one by one
// and every retirement swaps columns to keep the live lanes dense.
func TestGangStepAllocs(t *testing.T) {
	allocpin.SkipUnderRace(t)
	sieveSrc, err := machines.SieveSpec(16)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"sieve": sieveSrc, "bitmix": machines.BitMixSpec(6, 10)} {
		spec, err := core.ParseString(name, src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Compile(spec, core.Compiled)
		if err != nil {
			t.Fatal(err)
		}
		const lanes = 40
		budgets := make([]int64, lanes)
		for l := range budgets {
			budgets[l] = 30 + int64(l*37%lanes)*5
		}
		g, ok := p.NewGang(lanes)
		if !ok || g.BitParallel() != (name == "bitmix") {
			t.Fatalf("%s: gang-capable %v, bit-parallel %v", name, ok, ok && g.BitParallel())
		}
		g.Reset(budgets)
		g.Step(1) // builds the kernels, once
		var swept bool
		g.Reset(budgets)
		for g.Step(16) {
			swept = swept || g.LiveSpan() < lanes
		}
		if !swept {
			t.Fatalf("%s: no lane retired while others stepped", name)
		}
		if allocs := allocpin.Least(func() {
			g.Reset(budgets)
			for g.Step(16) {
			}
		}); allocs != 0 {
			t.Errorf("%s: %.0f allocations per gang run, want 0", name, allocs)
		}
	}
}
