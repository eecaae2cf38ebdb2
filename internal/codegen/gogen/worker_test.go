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
	"repro/internal/lower"
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
		parseGo(t, workerSource(spec))
	}
	for seed := 0; seed < 30; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		src := specgen.Generate(rng, specgen.Config{Combs: 1 + rng.Intn(10), Mems: 1 + rng.Intn(3)})
		spec, err := core.ParseString("rand", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		parseGo(t, workerSource(spec))
	}
}

// workerSource prints spec's worker from what a compiled program
// keeps: its layout and its folded lowering.
func workerSource(spec *core.Spec) string {
	prog := lower.Lower(spec.Info, true)
	return gogen.Worker(sim.NewLayout(spec.Info), &prog)
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
	src := workerSource(spec)
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

// runFrame is one run frame a worker answered with.
type runFrame struct {
	fault *aot.RunError
	state []byte
}

// runJob executes one job on the worker and returns its run frames.
func runJob(t *testing.T, p *aot.Proc, job aot.Job, onCheckpoint func(run int, cycle int64, state []byte)) []runFrame {
	t.Helper()
	var runs []runFrame
	_, err := p.Run(context.Background(), job, onCheckpoint, func(_ int, fault *aot.RunError, state []byte) error {
		runs = append(runs, runFrame{fault, state})
		return nil
	})
	if err != nil {
		t.Fatalf("worker job: %v", err)
	}
	return runs
}

// TestWorkerMatchesMachine runs every canonical spec for a few cycle
// budgets — power-on included — in a protocol worker and demands
// bit-identical results against the interpreter, which shares nothing
// with the lowering the worker is printed from: the same fault, and
// the exact SaveState snapshot bytes (see wantState) whether the run
// ended clean or faulted, since the snapshot is the result the host
// reads cycles, statistics and digest out of.
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
	faults := 0
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
		res := runJob(t, p, aot.Job{Targets: targets}, nil)
		for ri, n := range targets {
			m := prog.NewMachine(core.Options{})
			runErr := m.Run(n)
			rf := res[ri]
			if re, ok := runErr.(*sim.RuntimeError); ok {
				faults++
				if rf.fault == nil || rf.fault.Component != re.Component || rf.fault.Msg != re.Msg {
					t.Errorf("%s n=%d: worker fault %+v, machine err %v", name, n, rf.fault, runErr)
				}
			} else if runErr != nil {
				t.Fatalf("%s n=%d: %v", name, n, runErr)
			} else if rf.fault != nil {
				t.Fatalf("%s n=%d: worker fault %s, machine ran clean", name, n, rf.fault.Msg)
			}
			if !bytes.Equal(rf.state, wantState(m, spec)) {
				t.Errorf("%s n=%d: worker state snapshot differs from machine SaveState (machine err %v)", name, n, runErr)
			}
			// The snapshot must restore onto a real machine.
			m2 := prog.NewMachine(core.Options{})
			if err := m2.RestoreState(rf.state); err != nil {
				t.Errorf("%s n=%d: restore worker state: %v", name, n, err)
			} else if m2.ArchHash() != m.ArchHash() || m2.Cycle() != m.Cycle() {
				t.Errorf("%s n=%d: restored hash %#x cycle %d, machine %#x %d", name, n, m2.ArchHash(), m2.Cycle(), m.ArchHash(), m.Cycle())
			}
		}
	}
	if faults == 0 {
		t.Error("no run faulted, so no post-fault snapshot was compared")
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
	res := runJob(t, p, aot.Job{Targets: []int64{target, target}, CheckpointEvery: every},
		func(run int, cycle int64, state []byte) {
			cks = append(cks, ck{run, cycle, append([]byte(nil), state...)})
		})
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
	if !bytes.Equal(res[0].state, res[1].state) {
		t.Errorf("identical runs in one job diverged: reset between runs is broken")
	}
}

// TestWorkerRuntimeError: a generated worker reports the same
// component/message a machine's RuntimeError carries, with a snapshot
// holding the fault's cycle and the same partial statistics, and keeps
// serving runs afterwards.
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
	for ri, rf := range runJob(t, p, aot.Job{Targets: []int64{100, 100}}, nil) {
		if rf.fault == nil {
			t.Fatalf("run %d: worker ran clean, machine failed with %v", ri, re)
		}
		wm := prog.NewMachine(core.Options{})
		if err := wm.RestoreState(rf.state); err != nil {
			t.Fatalf("run %d: restore post-fault snapshot: %v", ri, err)
		}
		got := &sim.RuntimeError{Component: rf.fault.Component, Cycle: wm.Cycle(), Msg: rf.fault.Msg}
		if got.Error() != re.Error() {
			t.Errorf("run %d: worker error %q, machine %q", ri, got.Error(), re.Error())
		}
		if wm.Cycle() != m.Cycle() {
			t.Errorf("run %d: worker stopped at cycle %d, machine at %d", ri, wm.Cycle(), m.Cycle())
		}
		if wm.ArchHash() != m.ArchHash() {
			t.Errorf("run %d: post-fault hash differs", ri)
		}
		if w, want := wm.Stats().MemOps[0].Writes, m.Stats().MemOps[0].Writes; w != want {
			t.Errorf("run %d: partial write count %d, machine %d", ri, w, want)
		}
		if !strings.Contains(got.Error(), "outside 0..3") {
			t.Errorf("run %d: unexpected message %q", ri, got.Error())
		}
	}
}
