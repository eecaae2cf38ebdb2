package gogen_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/aot"
	"repro/internal/codegen/gogen"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/sim"
	"repro/internal/specgen"
)

// TestWorkerSourceParses: worker-mode output is valid Go for the whole
// canonical spec set and a specgen sweep.
func TestWorkerSourceParses(t *testing.T) {
	td, err := machines.Testdata()
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range td {
		spec, err := core.ParseString(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		parseGo(t, gogen.Generate(spec.Info, gogen.Options{Worker: true, NoTrace: true}))
	}
	for seed := 0; seed < 30; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		src := specgen.Generate(rng, specgen.Config{Combs: 1 + rng.Intn(10), Mems: 1 + rng.Intn(3)})
		spec, err := core.ParseString("rand", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		parseGo(t, gogen.Generate(spec.Info, gogen.Options{Worker: true, NoTrace: true}))
	}
}

// wantState is the reference machine's snapshot as every compiled
// backend holds it. The memory-input latches are backend scratch
// (Machine.ArchHash excludes them): the interpreter latches a memory's
// data operand every cycle, while compiled code never evaluates the
// data of a memory whose operation is a constant read or input and
// holds that latch at 0. Those latches are cleared here — from the
// spec, not from the lowering under test; every other byte is the
// interpreter's.
func wantState(m *core.Machine, spec *core.Spec) []byte {
	st := m.SaveState()
	word := func(off int) int { return int(binary.LittleEndian.Uint64(st[off:])) }
	off := 16 + 8*word(8) // magic, slot count, slots
	mems := spec.Info.Mems
	off += 8 // memory count
	for range mems {
		off += 8 + 8*word(off)
	}
	off += 8 * len(mems) // address latches; data latches follow
	for i, mem := range mems {
		if v, ok := mem.Opn.ConstValue(); ok && (v&3 == sim.OpRead || v&3 == sim.OpInput) {
			binary.LittleEndian.PutUint64(st[off+8*i:], 0)
		}
	}
	return st
}

// buildWorker generates, compiles and starts a protocol worker for the
// spec, via the real binary cache (so the build path is the production
// one).
func buildWorker(t *testing.T, spec *core.Spec) *aot.Proc {
	t.Helper()
	cache, err := aot.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := gogen.Generate(spec.Info, gogen.Options{Worker: true, NoTrace: true})
	bin, err := cache.Binary(src)
	if err != nil {
		t.Fatalf("build worker: %v", err)
	}
	p, err := aot.StartProc(bin)
	if err != nil {
		t.Fatalf("start worker: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestWorkerMatchesMachine runs every canonical spec for a few cycle
// budgets — power-on included — in a protocol worker and demands
// bit-identical observables against the interpreter, which shares
// nothing with the lowering the worker is printed from: cycle counts,
// architectural hash, statistics, and the exact SaveState snapshot
// bytes (see wantState).
func TestWorkerMatchesMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	td, err := machines.Testdata()
	if err != nil {
		t.Fatal(err)
	}
	// Generated specs ride along: seed 5 once exposed an operator-
	// precedence bug in the expression lowering (a concatenation
	// embedded unparenthesized under a complement), which only a
	// byte-level state comparison catches.
	for _, seed := range []int64{2, 5, 6, 11} {
		rng := rand.New(rand.NewSource(seed))
		td[fmt.Sprintf("rand%d.sim", seed)] = specgen.Generate(rng,
			specgen.Config{Combs: 1 + rng.Intn(10), Mems: 1 + rng.Intn(3)})
	}
	// Concatenations under NOT, SUB's right side and MUL — where the
	// printed text needs parentheses — and a selector whose constant
	// select is out of range, which faults in cycle 0 after the three
	// ALUs have computed from the memories' initial values.
	td["compound.sim"] = `#compound operands, constant out-of-range select
n s p o r k .
A n 3 r.0.3,#01,k.8.11 0
A s 5 k r.0.3,5.3
A p 7 r.4.7,#1 k.0.2,r.1
S o 5 n s p
M r 0 0 0 -1 1234567
M k 0 0 0 -1 987654
.
`
	for name, src := range td {
		spec, err := core.ParseString(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := core.Compile(spec, core.Interp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := buildWorker(t, spec)

		targets := []int64{0, 1, 17, 500}
		res, err := p.Run(context.Background(), aot.Job{Targets: targets, WantState: true}, nil)
		if err != nil {
			t.Fatalf("%s: worker job: %v", name, err)
		}
		for ri, n := range targets {
			m := prog.NewMachine(core.Options{})
			runErr := m.Run(n)
			rr := res[ri]
			if runErr != nil {
				if rr.Err == nil || rr.Err.Msg != runErr.(*sim.RuntimeError).Msg {
					t.Errorf("%s n=%d: worker err %+v, machine err %v", name, n, rr.Err, runErr)
				} else if rr.Cycles != m.Cycle() || rr.Hash != m.ArchHash() {
					t.Errorf("%s n=%d: post-fault worker cycle %d hash %#x, machine %d %#x", name, n, rr.Cycles, rr.Hash, m.Cycle(), m.ArchHash())
				}
				continue
			}
			if rr.Err != nil {
				t.Fatalf("%s n=%d: worker error %s, machine ran clean", name, n, rr.Err.Msg)
			}
			if rr.Cycles != m.Cycle() {
				t.Errorf("%s n=%d: worker cycles %d, machine %d", name, n, rr.Cycles, m.Cycle())
			}
			if rr.Hash != m.ArchHash() {
				t.Errorf("%s n=%d: worker hash %#x, machine %#x", name, n, rr.Hash, m.ArchHash())
			}
			st := m.Stats()
			if rr.StatCycles != st.Cycles {
				t.Errorf("%s n=%d: worker stat cycles %d, machine %d", name, n, rr.StatCycles, st.Cycles)
			}
			if len(rr.MemOps) != len(st.MemOps) {
				t.Fatalf("%s n=%d: worker has %d memories, machine %d", name, n, len(rr.MemOps), len(st.MemOps))
			}
			for i, ops := range st.MemOps {
				got := rr.MemOps[i]
				if got[0] != ops.Reads || got[1] != ops.Writes || got[2] != ops.Inputs || got[3] != ops.Outputs {
					t.Errorf("%s n=%d mem %d: worker ops %v, machine %+v", name, n, i, got, ops)
				}
			}
			if !bytes.Equal(rr.State, wantState(m, spec)) {
				t.Errorf("%s n=%d: worker state snapshot differs from machine SaveState", name, n)
			}
			// The snapshot must restore onto a real machine.
			m2 := prog.NewMachine(core.Options{})
			if err := m2.RestoreState(rr.State); err != nil {
				t.Errorf("%s n=%d: restore worker state: %v", name, n, err)
			} else if m2.ArchHash() != rr.Hash {
				t.Errorf("%s n=%d: restored hash differs", name, n)
			}
		}
	}
}

// TestWorkerCheckpoints: periodic checkpoint frames carry the exact
// machine state at the checkpoint cycle, and successive runs in one
// job are fully isolated (reset between runs).
func TestWorkerCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	srcSpec, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseString("sieve", srcSpec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(spec, core.Interp)
	if err != nil {
		t.Fatal(err)
	}
	p := buildWorker(t, spec)

	const target, every = 100, 32
	want := map[int64][]byte{}
	m := prog.NewMachine(core.Options{})
	for c := int64(every); c < target; c += every {
		if err := m.Run(every); err != nil {
			t.Fatal(err)
		}
		want[m.Cycle()] = wantState(m, spec)
	}

	type ck struct {
		run   int
		cycle int64
		state []byte
	}
	var cks []ck
	res, err := p.Run(context.Background(),
		aot.Job{Targets: []int64{target, target}, CheckpointEvery: every, WantState: true},
		func(run int, cycle int64, state []byte) {
			cks = append(cks, ck{run, cycle, append([]byte(nil), state...)})
		})
	if err != nil {
		t.Fatal(err)
	}
	perRun := 0
	for _, c := range cks {
		if c.run == 0 {
			perRun++
		}
		st, ok := want[c.cycle]
		if !ok {
			t.Errorf("unexpected checkpoint at cycle %d", c.cycle)
			continue
		}
		if !bytes.Equal(c.state, st) {
			t.Errorf("run %d checkpoint at cycle %d differs from machine state", c.run, c.cycle)
		}
	}
	if wantCk := len(want); perRun != wantCk {
		t.Errorf("run 0 emitted %d checkpoints, want %d", perRun, wantCk)
	}
	if res[0].Hash != res[1].Hash || !bytes.Equal(res[0].State, res[1].State) {
		t.Errorf("identical runs in one job diverged: reset between runs is broken")
	}
}

// TestWorkerRuntimeError: a generated worker reports the same
// component/cycle/message a machine's RuntimeError carries, with the
// same partial statistics, and keeps serving runs afterwards.
func TestWorkerRuntimeError(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	// A register-held counter addressing a 4-cell memory: the write at
	// address 4 faults.
	src := `#oob
next c m .
A next 4 c 1
M c 0 next 1 1
M m c 0 1 4
.
`
	spec, err := core.ParseString("oob", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(spec, core.Interp)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewMachine(core.Options{})
	runErr := m.Run(100)
	re, ok := runErr.(*sim.RuntimeError)
	if !ok {
		t.Fatalf("machine error = %v, want RuntimeError", runErr)
	}

	p := buildWorker(t, spec)
	res, err := p.Run(context.Background(), aot.Job{Targets: []int64{100, 100}, WantState: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ri, rr := range res {
		if rr.Err == nil {
			t.Fatalf("run %d: worker ran clean, machine failed with %v", ri, re)
		}
		got := &sim.RuntimeError{Component: rr.Err.Component, Cycle: rr.Err.Cycle, Msg: rr.Err.Msg}
		if got.Error() != re.Error() {
			t.Errorf("run %d: worker error %q, machine %q", ri, got.Error(), re.Error())
		}
		if rr.Cycles != m.Cycle() {
			t.Errorf("run %d: worker stopped at cycle %d, machine at %d", ri, rr.Cycles, m.Cycle())
		}
		if rr.Hash != m.ArchHash() {
			t.Errorf("run %d: post-fault hash differs", ri)
		}
		if rr.MemOps[0][1] != m.Stats().MemOps[0].Writes {
			t.Errorf("run %d: partial write count %d, machine %d", ri, rr.MemOps[0][1], m.Stats().MemOps[0].Writes)
		}
		if len(rr.State) != 0 {
			t.Errorf("run %d: error run should carry no state snapshot", ri)
		}
		if !strings.Contains(got.Error(), "outside 0..3") {
			t.Errorf("run %d: unexpected message %q", ri, got.Error())
		}
	}
}
