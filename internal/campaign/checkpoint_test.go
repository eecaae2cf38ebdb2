package campaign_test

// Engine checkpointing tests: the Checkpointer hook must emit
// restorable snapshots on both execution paths (pooled scalar and
// gang), and a campaign resumed from any checkpoint must finish
// byte-identical to the uninterrupted execution — the property the
// serving layer's durability rides on.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machines"
	"repro/internal/sim"
)

// memCheckpointer records every checkpoint, keeping the full cycle
// history and a copy of each run's earliest and latest snapshots.
type memCheckpointer struct {
	mu     sync.Mutex
	cycles map[int][]int64
	first  map[int][]byte
	firstC map[int]int64
	latest map[int][]byte
	lastC  map[int]int64
}

func newMemCheckpointer() *memCheckpointer {
	return &memCheckpointer{
		cycles: map[int][]int64{},
		first:  map[int][]byte{},
		firstC: map[int]int64{},
		latest: map[int][]byte{},
		lastC:  map[int]int64{},
	}
}

func (c *memCheckpointer) Checkpoint(run int, cycle int64, state []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cycles[run] = append(c.cycles[run], cycle)
	if _, ok := c.first[run]; !ok {
		c.first[run] = append([]byte(nil), state...)
		c.firstC[run] = cycle
	}
	c.latest[run] = append(c.latest[run][:0], state...)
	c.lastC[run] = cycle
}

func sieveProgram(t *testing.T) *core.Program {
	t.Helper()
	src, err := machines.SieveSpec(20)
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
	return p
}

// TestEngineCheckpoints: both execution paths emit periodic
// checkpoints with monotonic cycles, a retirement checkpoint at the
// target cycle, and snapshot bytes whose embedded cycle counter
// (sim.SnapshotCycle — the exported framing) matches the reported one.
func TestEngineCheckpoints(t *testing.T) {
	p := sieveProgram(t)
	const runs, cycles, every = 5, 1000, 128
	for name, gang := range map[string]int{"scalar": 1, "gang": 4} {
		t.Run(name, func(t *testing.T) {
			ck := newMemCheckpointer()
			eng := campaign.Engine{Workers: 2, Chunk: 64, GangSize: gang,
				Checkpoint: ck, CheckpointEvery: every}
			if _, err := eng.Execute(context.Background(), campaign.Fleet("f", p, runs, cycles)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < runs; i++ {
				hist := ck.cycles[i]
				if len(hist) < 2 {
					t.Fatalf("run %d: %d checkpoints, want periodic + retirement", i, len(hist))
				}
				for j := 1; j < len(hist); j++ {
					if hist[j] < hist[j-1] {
						t.Errorf("run %d: checkpoint cycles not monotonic: %v", i, hist)
					}
				}
				if last := hist[len(hist)-1]; last != cycles {
					t.Errorf("run %d: retirement checkpoint at cycle %d, want %d", i, last, cycles)
				}
				got, err := sim.SnapshotCycle(ck.latest[i])
				if err != nil {
					t.Fatalf("run %d: latest snapshot unreadable: %v", i, err)
				}
				if got != ck.lastC[i] {
					t.Errorf("run %d: snapshot says cycle %d, hook reported %d", i, got, ck.lastC[i])
				}
			}
		})
	}
}

// TestCheckpointsOnlyWhileRunning: periodic checkpoints are for runs
// still executing. A run that has halted — early, or exactly on an
// interval boundary — is snapshotted once more, at retirement, however
// long its gang's last survivor keeps stepping; a run that died on a
// runtime error emits nothing from its fault on. So per run the
// checkpoint cycles strictly increase.
func TestCheckpointsOnlyWhileRunning(t *testing.T) {
	// count steps by one per cycle and indexes a 150-case selector:
	// every run budgeted past cycle 150 faults there.
	late, err := core.ParseString("late", "#late\ninc count sel .\nA inc 4 count 1\nM count 0 inc 1 1\n"+
		"S sel count"+strings.Repeat(" 0", 150)+"\n.\n")
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := core.Compile(late, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	clean := sieveProgram(t)
	var runs []campaign.Run
	for _, p := range []*core.Program{clean, faulty} {
		for _, cycles := range []int64{100, 100, 128, 20000} {
			runs = append(runs, campaign.Run{Name: "r", Program: p, Cycles: cycles})
		}
	}
	for name, gang := range map[string]int{"scalar": 1, "gang": 0} {
		t.Run(name, func(t *testing.T) {
			ck := newMemCheckpointer()
			eng := campaign.Engine{Workers: 1, Chunk: 64, GangSize: gang,
				Checkpoint: ck, CheckpointEvery: 64}
			results, err := eng.Execute(context.Background(), runs)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				hist := ck.cycles[i]
				for j := 1; j < len(hist); j++ {
					if hist[j] <= hist[j-1] {
						t.Errorf("run %d (budget %d): checkpoint %d of %d is at cycle %d, after one at %d",
							i, runs[i].Cycles, j+1, len(hist), hist[j], hist[j-1])
						break
					}
				}
				if len(hist) == 0 {
					t.Fatalf("run %d: no checkpoints", i)
				}
				last := hist[len(hist)-1]
				if r.Err == nil {
					if last != runs[i].Cycles {
						t.Errorf("run %d: last checkpoint at %d, want the retirement one at %d", i, last, runs[i].Cycles)
					}
					continue
				}
				if runs[i].Program != faulty || r.Cycles != 150 {
					t.Fatalf("run %d: unexpected failure at cycle %d: %v", i, r.Cycles, r.Err)
				}
				if last >= r.Cycles {
					t.Errorf("run %d faulted at cycle %d but checkpointed at %v", i, r.Cycles, hist)
				}
			}
		})
	}
}

// cancelOnCheckpoint cancels its context from inside the first
// Checkpoint call — a cancellation at a known simulated cycle, with no
// wall clock involved.
type cancelOnCheckpoint struct {
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelOnCheckpoint) Checkpoint(int, int64, []byte) { c.once.Do(c.cancel) }

// TestCancellationBoundedByChunk: how far a run executes past a
// cancellation is bounded by Engine.Chunk in simulated cycles — a full
// 64-lane gang and a scalar run both stop within two chunks of it — and
// every unfinished run reports the context's error.
func TestCancellationBoundedByChunk(t *testing.T) {
	p := sieveProgram(t)
	const chunk = 256
	for name, tc := range map[string]struct{ gang, runs int }{
		"gang":   {64, 64},
		"scalar": {1, 3},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			eng := campaign.Engine{Workers: 1, Chunk: chunk, GangSize: tc.gang,
				Checkpoint: &cancelOnCheckpoint{cancel: cancel}, CheckpointEvery: chunk}
			results, err := eng.Execute(ctx, campaign.Fleet("f", p, tc.runs, 1<<40))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Execute returned %v, want context.Canceled", err)
			}
			started := 0
			for i, r := range results {
				if !errors.Is(r.Err, context.Canceled) {
					t.Errorf("run %d: err %v, want context.Canceled", i, r.Err)
				}
				if r.Cycles > 2*chunk {
					t.Errorf("run %d executed %d cycles past a cancellation in its first %d", i, r.Cycles, chunk)
				}
				if r.Cycles > 0 {
					started++
				}
			}
			if started == 0 {
				t.Error("no run was executing when the context was cancelled")
			}
		})
	}
}

// TestCheckpointResumeByteIdentical: completing a run from its first
// periodic checkpoint (via WarmStartFromState) reproduces the
// uninterrupted run exactly — same digest, cycle count and statistics
// — whether the original checkpoints came from the scalar or the gang
// path. This is the durability layer's correctness bar.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	p := sieveProgram(t)
	const runs, cycles, every = 4, 900, 128
	ref, err := campaign.Engine{Workers: 2, Chunk: 64}.
		Execute(context.Background(), campaign.Fleet("f", p, runs, cycles))
	if err != nil {
		t.Fatal(err)
	}
	for name, gang := range map[string]int{"scalar": 1, "gang": 4} {
		t.Run(name, func(t *testing.T) {
			ck := newMemCheckpointer()
			eng := campaign.Engine{Workers: 2, Chunk: 64, GangSize: gang,
				Checkpoint: ck, CheckpointEvery: every}
			if _, err := eng.Execute(context.Background(), campaign.Fleet("f", p, runs, cycles)); err != nil {
				t.Fatal(err)
			}
			// Resume every run from its earliest (mid-flight) checkpoint.
			resumed := campaign.Fleet("f", p, runs, cycles)
			for i := range resumed {
				st, cyc := ck.first[i], ck.firstC[i]
				if cyc <= 0 || cyc >= cycles {
					t.Fatalf("run %d: first checkpoint at %d is not mid-flight", i, cyc)
				}
				resumed[i].Warm = campaign.WarmStartFromState(p, cyc, st)
			}
			got, err := campaign.Engine{Workers: 2, Chunk: 64}.
				Execute(context.Background(), resumed)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if got[i].Digest != ref[i].Digest || got[i].Cycles != ref[i].Cycles {
					t.Errorf("run %d: resumed digest/cycles %s/%d, uninterrupted %s/%d",
						i, got[i].Digest, got[i].Cycles, ref[i].Digest, ref[i].Cycles)
				}
				if got[i].Stats.Cycles != ref[i].Stats.Cycles ||
					got[i].Stats.MemReads() != ref[i].Stats.MemReads() ||
					got[i].Stats.MemWrites() != ref[i].Stats.MemWrites() {
					t.Errorf("run %d: resumed stats %+v, uninterrupted %+v", i, got[i].Stats, ref[i].Stats)
				}
			}
		})
	}
}

// TestCheckpointInterrupted: a campaign cancelled mid-flight leaves an
// interruption checkpoint for every unfinished dispatched run, and
// completing those runs from their latest checkpoints merges with the
// already-finished results into exactly the uninterrupted outcome.
func TestCheckpointInterrupted(t *testing.T) {
	p := sieveProgram(t)
	const runs, cycles, every = 6, 20000, 256
	ref, err := campaign.Engine{Workers: 2, Chunk: 64}.
		Execute(context.Background(), campaign.Fleet("f", p, runs, cycles))
	if err != nil {
		t.Fatal(err)
	}

	ck := newMemCheckpointer()
	eng := campaign.Engine{Workers: 2, Chunk: 64, GangSize: 1,
		Checkpoint: ck, CheckpointEvery: every}
	ctx, cancel := context.WithCancel(context.Background())
	finished := map[int]campaign.Result{}
	var mu sync.Mutex
	_, execErr := eng.ExecuteStream(ctx, campaign.Fleet("f", p, runs, cycles), func(r campaign.Result) {
		mu.Lock()
		defer mu.Unlock()
		if r.Err == nil {
			finished[r.Index] = r
		}
		if len(finished) == 1 {
			cancel() // interrupt after the first run retires
		}
	})
	cancel()
	if execErr == nil {
		t.Fatal("cancelled campaign reported no error")
	}

	// Rebuild the campaign: finished runs keep their results, the rest
	// warm-start from their latest checkpoint (or cold-start if they
	// were never dispatched).
	resumed := campaign.Fleet("f", p, runs, cycles)
	var todo []campaign.Run
	var todoIdx []int
	for i := range resumed {
		if _, done := finished[i]; done {
			continue
		}
		if st, ok := ck.latest[i]; ok {
			resumed[i].Warm = campaign.WarmStartFromState(p, ck.lastC[i], st)
		}
		todo = append(todo, resumed[i])
		todoIdx = append(todoIdx, i)
	}
	if len(todo) == 0 || len(todo) == runs {
		t.Fatalf("interruption not mid-campaign: %d of %d runs finished", runs-len(todo), runs)
	}
	rest, err := campaign.Engine{Workers: 2, Chunk: 64}.Execute(context.Background(), todo)
	if err != nil {
		t.Fatal(err)
	}
	merged := make([]campaign.Result, runs)
	for i, r := range finished {
		merged[i] = r
	}
	for j, r := range rest {
		merged[todoIdx[j]] = r
	}
	for i := range ref {
		if merged[i].Digest != ref[i].Digest || merged[i].Cycles != ref[i].Cycles ||
			merged[i].Stats.Cycles != ref[i].Stats.Cycles {
			t.Errorf("run %d: merged %s/%d/%d, uninterrupted %s/%d/%d",
				i, merged[i].Digest, merged[i].Cycles, merged[i].Stats.Cycles,
				ref[i].Digest, ref[i].Cycles, ref[i].Stats.Cycles)
		}
	}
}

// TestCheckpointMidCompactionResume: checkpoints taken from a gang
// that compacts mid-campaign — most lanes retire early, the survivors'
// columns move to low physical slots while the long lanes keep
// running — must still resume byte-identical. This pins the logical→
// physical translation under the durability layer: AppendLaneState
// must follow a lane wherever compaction moved it.
func TestCheckpointMidCompactionResume(t *testing.T) {
	spec, err := core.ParseString("bitmix", machines.BitMixSpec(8, 12))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	const lanes, every = 32, 64
	runs := make([]campaign.Run, lanes)
	targets := make([]int64, lanes)
	for i := range runs {
		cycles := int64(40 + 11*i) // retire early, staggered
		if i >= lanes-2 {
			cycles = 4000 // the long tail that outlives compaction
		}
		runs[i] = campaign.Run{Name: "r", Program: p, Cycles: cycles}
		targets[i] = cycles
	}

	// The campaign's gang is deterministic in (targets, chunk); prove
	// this shape actually compacts by replaying it directly.
	g, ok := p.NewGang(lanes)
	if !ok || !g.BitParallel() {
		t.Fatal("bitmix gang not bit-parallel")
	}
	g.Reset(targets)
	compacted := false
	for g.Step(32) {
		if !g.Done() && g.LiveSpan() < lanes/2 {
			compacted = true
		}
	}
	if !compacted {
		t.Fatal("test shape never compacted; budgets need retuning")
	}

	ref, err := campaign.Engine{Workers: 1, GangSize: 1, Chunk: 32}.
		Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	ck := newMemCheckpointer()
	eng := campaign.Engine{Workers: 1, GangSize: lanes, Chunk: 32,
		Checkpoint: ck, CheckpointEvery: every}
	if _, err := eng.Execute(context.Background(), runs); err != nil {
		t.Fatal(err)
	}
	// The long lanes must have checkpointed after compaction moved them.
	for i := lanes - 2; i < lanes; i++ {
		if ck.lastC[i] != runs[i].Cycles {
			t.Fatalf("long run %d: last checkpoint at %d, want %d", i, ck.lastC[i], runs[i].Cycles)
		}
	}
	resumed := make([]campaign.Run, lanes)
	copy(resumed, runs)
	for i := range resumed {
		st, cyc := ck.first[i], ck.firstC[i]
		if cyc <= 0 || cyc > runs[i].Cycles {
			t.Fatalf("run %d: first checkpoint at %d outside (0, %d]", i, cyc, runs[i].Cycles)
		}
		resumed[i].Warm = campaign.WarmStartFromState(p, cyc, st)
	}
	got, err := campaign.Engine{Workers: 1, GangSize: 1, Chunk: 32}.
		Execute(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i].Digest != ref[i].Digest || got[i].Cycles != ref[i].Cycles ||
			got[i].Stats.Cycles != ref[i].Stats.Cycles {
			t.Errorf("run %d: resumed %s/%d, uninterrupted %s/%d",
				i, got[i].Digest, got[i].Cycles, ref[i].Digest, ref[i].Cycles)
		}
	}
}

// TestWarmStartDegradesToCold: every malformed warm start — wrong
// program, snapshot cycle past the run's budget, non-positive cycle,
// corrupt or truncated state bytes — must silently fall back to a
// cold start that produces the exact cold-run results, never an error
// and never a half-restored machine.
func TestWarmStartDegradesToCold(t *testing.T) {
	p := sieveProgram(t)
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseString("sieve-b", src)
	if err != nil {
		t.Fatal(err)
	}
	// Same spec, separately compiled: a distinct *Program identity is
	// exactly the "misattached WarmStart" shape the engine must spot.
	other, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 600
	cold := []campaign.Run{{Name: "cold", Program: p, Cycles: cycles}}
	ref, err := campaign.Engine{Workers: 1}.Execute(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}

	// A genuine snapshot of p at cycle 200 — the raw material the
	// corrupt variants start from.
	m := p.NewMachine(core.Options{})
	if err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	good := m.SaveState()

	for name, warm := range map[string]*campaign.WarmStart{
		"wrong-program":   campaign.WarmStartFromState(other, 200, good),
		"cycle-past-run":  campaign.WarmStartFromState(p, cycles+1, good),
		"zero-cycle":      campaign.WarmStartFromState(p, 0, good),
		"negative-cycle":  campaign.WarmStartFromState(p, -5, good),
		"truncated-state": campaign.WarmStartFromState(p, 200, good[:len(good)/2]),
		"empty-state":     campaign.WarmStartFromState(p, 200, nil),
		"corrupt-magic": campaign.WarmStartFromState(p, 200, func() []byte {
			bad := append([]byte(nil), good...)
			bad[0] ^= 0xff
			return bad
		}()),
		// A claim other than the snapshot's own cycle: trusting it would
		// resume at 200 and count the budget from the claim.
		"claim-below-snapshot": campaign.WarmStartFromState(p, 100, good),
		"claim-above-snapshot": campaign.WarmStartFromState(p, 300, good),
	} {
		runs := []campaign.Run{{Name: "cold", Program: p, Cycles: cycles, Warm: warm}}
		got, err := campaign.Engine{Workers: 1}.Execute(context.Background(), runs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got[0].Err != nil {
			t.Fatalf("%s: run error %v, want silent cold start", name, got[0].Err)
		}
		if got[0].Digest != ref[0].Digest || got[0].Cycles != ref[0].Cycles ||
			!reflect.DeepEqual(got[0].Stats, ref[0].Stats) {
			t.Errorf("%s: degraded run diverged from cold start:\n got %+v\nwant %+v", name, got[0], ref[0])
		}
	}

	// Sanity: a well-formed warm start from the same snapshot also
	// matches the cold run (the fallback tests above would be vacuous
	// if warm starts never engaged).
	runs := []campaign.Run{{Name: "cold", Program: p, Cycles: cycles,
		Warm: campaign.WarmStartFromState(p, 200, good)}}
	got, err := campaign.Engine{Workers: 1}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Digest != ref[0].Digest || got[0].Stats.Cycles != ref[0].Stats.Cycles {
		t.Errorf("well-formed warm start diverged: got %+v want %+v", got[0], ref[0])
	}
}

// TestCheckpointEligibility: fault-injecting runs never emit — a
// snapshot does not capture injector bookkeeping — while the fault
// campaign's golden run (zero options, no faults) does.
func TestCheckpointEligibility(t *testing.T) {
	src, err := machines.TinyComputer(machines.TinyDivideImage(47, 5))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseString("tiny", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Compile(spec, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	faults := []fault.Fault{{Component: "ac", Bit: 0, Kind: fault.StuckAt1, From: 40, Until: 400}}
	runs := campaign.FaultRuns("fc", p, 400, campaign.CellsDigest(p), faults)
	ck := newMemCheckpointer()
	eng := campaign.Engine{Workers: 1, Chunk: 64, Checkpoint: ck, CheckpointEvery: 64}
	if _, err := eng.Execute(context.Background(), runs); err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		_, emitted := ck.latest[i]
		if len(r.Faults) > 0 && emitted {
			t.Errorf("fault run %d emitted checkpoints", i)
		}
	}
}
