package sim_test

// SaveState/RestoreState round-trip tests: a machine restored from a
// snapshot must be bit-identical to the machine the snapshot was taken
// from — same digests, same statistics, same continued trajectory —
// on every backend, and a snapshot must restore across backends (the
// warm-start path fault campaigns rely on).

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/sim"
)

func compileAll(t *testing.T, name, src string) map[core.Backend]*core.Program {
	t.Helper()
	spec, err := core.ParseString(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	progs := make(map[core.Backend]*core.Program)
	// The alias compiled-aot stays in the matrix: a program compiled
	// through it must behave as compiled's does.
	for _, b := range append(core.Backends(), core.CompiledAOT) {
		p, err := core.Compile(spec, b)
		if err != nil {
			t.Fatalf("%s: compile %s: %v", name, b, err)
		}
		progs[b] = p
	}
	return progs
}

// TestSaveRestoreRoundTrip: on every backend and every canonical
// machine, splitting a run at an arbitrary snapshot point is invisible
// — the restored machine finishes with the same digest, cycle count
// and statistics as the uninterrupted run, and re-saving immediately
// after a restore reproduces the snapshot byte for byte.
func TestSaveRestoreRoundTrip(t *testing.T) {
	specs, err := machines.Testdata()
	if err != nil {
		t.Fatal(err)
	}
	const prefix, total = 37, 200
	for name, src := range specs {
		for b, p := range compileAll(t, name, src) {
			t.Run(name+"/"+string(b), func(t *testing.T) {
				straight := p.NewMachine(core.Options{})
				if err := straight.Run(total); err != nil {
					t.Skipf("workload errors at cycle %v without input: %v", straight.Cycle(), err)
				}

				donor := p.NewMachine(core.Options{})
				if err := donor.Run(prefix); err != nil {
					t.Fatal(err)
				}
				st := donor.SaveState()

				warm := p.NewMachine(core.Options{})
				if err := warm.RestoreState(st); err != nil {
					t.Fatalf("restore: %v", err)
				}
				if got := warm.AppendState(nil); !bytes.Equal(got, st) {
					t.Fatal("save→restore→save is not byte-identical")
				}
				if warm.Cycle() != prefix {
					t.Fatalf("restored cycle = %d, want %d", warm.Cycle(), prefix)
				}
				if err := warm.Run(total - prefix); err != nil {
					t.Fatal(err)
				}

				if got, want := campaign.SnapshotDigest(warm), campaign.SnapshotDigest(straight); got != want {
					t.Errorf("warm-started digest %s != straight-run digest %s", got, want)
				}
				if got, want := warm.Stats(), straight.Stats(); got.Cycles != want.Cycles {
					t.Errorf("stats cycles %d != %d", got.Cycles, want.Cycles)
				} else {
					for i := range want.MemOps {
						if got.MemOps[i] != want.MemOps[i] {
							t.Errorf("mem %d stats %+v != %+v", i, got.MemOps[i], want.MemOps[i])
						}
					}
				}
			})
		}
	}
}

// TestSaveRestoreAcrossBackends: a snapshot taken on one backend
// warm-starts a machine on any other backend, because snapshots hold
// only architectural state.
func TestSaveRestoreAcrossBackends(t *testing.T) {
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	progs := compileAll(t, "sieve", src)
	const prefix, total = 500, 2000

	ref := progs[core.Interp].NewMachine(core.Options{})
	if err := ref.Run(total); err != nil {
		t.Fatal(err)
	}
	want := campaign.SnapshotDigest(ref)

	donor := progs[core.Interp].NewMachine(core.Options{})
	if err := donor.Run(prefix); err != nil {
		t.Fatal(err)
	}
	st := donor.SaveState()
	for b, p := range progs {
		m := p.NewMachine(core.Options{})
		if err := m.RestoreState(st); err != nil {
			t.Fatalf("%s: restore: %v", b, err)
		}
		if err := m.Run(total - prefix); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if got := campaign.SnapshotDigest(m); got != want {
			t.Errorf("%s warm-started from interp snapshot: digest %s, want %s", b, got, want)
		}
	}
}

// TestRestoreRejectsMismatch: restoring a foreign, corrupt or
// mis-shaped snapshot fails cleanly, on a machine and on a gang lane
// alike, leaving the target's state untouched.
func TestRestoreRejectsMismatch(t *testing.T) {
	counter, err := core.ParseString("counter", machines.Counter())
	if err != nil {
		t.Fatal(err)
	}
	sieveSrc, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	sieve, err := core.ParseString("sieve", sieveSrc)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := core.NewMachine(counter, core.Compiled, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := core.Compile(sieve, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	sm := sp.NewMachine(core.Options{})
	if err := sm.Run(100); err != nil {
		t.Fatal(err)
	}
	g, ok := sp.NewGang(2)
	if !ok {
		t.Fatal("compiled program should gang")
	}
	g.Reset([]int64{80, 120})
	for g.Step(1000) {
	}

	good := sm.SaveState()
	word := func(off int) int64 { return int64(binary.LittleEndian.Uint64(good[off:])) }
	memCount := 16 + 8*int(word(8))
	mem0 := memCount + 8
	mem1 := mem0 + 8 + 8*int(word(mem0))
	// bump returns st with the word at each offset moved by d.
	bump := func(st []byte, d int64, offs ...int) []byte {
		st = append([]byte(nil), st...)
		for _, off := range offs {
			binary.LittleEndian.PutUint64(st[off:], uint64(int64(binary.LittleEndian.Uint64(st[off:]))+d))
		}
		return st
	}
	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xff // corrupt the magic
	cases := []struct {
		name string
		st   []byte
	}{
		{"foreign shape", cm.SaveState()},
		{"empty", nil},
		{"bad magic", badMagic},
		{"wrong slot count", bump(good, 1, 8)},
		{"wrong memory count", bump(good, 1, memCount)},
		{"wrong memory size", bump(good, 1, mem0)},
		// Same total length: only the shape check can tell.
		{"memory sizes traded", bump(bump(good, 1, mem0), -1, mem1)},
	}
	targets := []struct {
		name    string
		restore func([]byte) error
		state   func() []byte // everything a failed restore must not touch
	}{
		{"machine", sm.RestoreState, func() []byte {
			return append(sm.SaveState(), campaign.SnapshotDigest(sm)...)
		}},
		{"gang lane", func(st []byte) error { return g.RestoreLaneState(1, st) }, func() []byte {
			return append(g.SaveLaneState(0), g.SaveLaneState(1)...)
		}},
	}
	for _, tg := range targets {
		before := tg.state()
		for _, c := range cases {
			if err := tg.restore(c.st); err == nil {
				t.Errorf("%s: %s snapshot accepted", tg.name, c.name)
			}
			if !bytes.Equal(tg.state(), before) {
				t.Errorf("%s: failed restore of %s snapshot modified state", tg.name, c.name)
			}
		}
		// The cases above would be vacuous if good snapshots failed too.
		if err := tg.restore(good); err != nil {
			t.Errorf("%s: good snapshot rejected: %v", tg.name, err)
		}
	}
}

// TestStatsOwnership: the Stats a caller received must not change when
// the machine is Reset and reused (the pooled-worker pattern), and the
// reset machine's snapshot is a fresh machine's.
func TestStatsOwnership(t *testing.T) {
	src, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseString("sieve", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(spec, core.Compiled, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(500); err != nil {
		t.Fatal(err)
	}
	got := m.Stats()
	reads := got.MemReads()
	if reads == 0 {
		t.Fatal("workload performed no reads")
	}
	m.Reset()
	// A pooled machine's power-on snapshot is a fresh machine's: the
	// previous run's memory latches must not survive Reset.
	fresh, err := core.NewMachine(spec, core.Compiled, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.SaveState(), fresh.SaveState()) {
		t.Error("SaveState after run+Reset differs from a fresh machine's")
	}
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if got.MemReads() != reads || got.Cycles != 500 {
		t.Errorf("earlier Stats mutated by Reset+reuse: %+v", got)
	}
}

// TestSnapshotCycle: the exported checkpoint framing reads the cycle
// counter straight out of snapshot bytes — Machine and Gang snapshots
// alike — and rejects malformed or truncated input instead of
// misreading it.
func TestSnapshotCycle(t *testing.T) {
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
	m := p.NewMachine(core.Options{})
	for _, run := range []int64{0, 17, 100} {
		if err := m.Run(run); err != nil {
			t.Fatal(err)
		}
		st := m.SaveState()
		got, err := sim.SnapshotCycle(st)
		if err != nil {
			t.Fatalf("cycle %d: %v", m.Cycle(), err)
		}
		if got != m.Cycle() {
			t.Errorf("SnapshotCycle = %d, want %d", got, m.Cycle())
		}
		// Truncations anywhere must error, never misread.
		for _, n := range []int{0, 7, 8, 15, len(st) / 2, len(st) - 1} {
			if _, err := sim.SnapshotCycle(st[:n]); err == nil {
				t.Errorf("truncated snapshot (%d bytes) accepted", n)
			}
		}
		bad := append([]byte(nil), st...)
		bad[0] ^= 0xff
		if _, err := sim.SnapshotCycle(bad); err == nil {
			t.Error("corrupt magic accepted")
		}
	}

	// Oversized: trailing garbage must fail the exact-length framing
	// check, not be silently ignored (a torn concatenation of two
	// records would otherwise read as the first).
	st := m.SaveState()
	if _, err := sim.SnapshotCycle(append(st, 0xde)); err == nil {
		t.Error("snapshot with 1 trailing byte accepted")
	}
	if _, err := sim.SnapshotCycle(append(st, st...)); err == nil {
		t.Error("two concatenated snapshots accepted as one")
	}
	// Corrupt interior counts: a slot count or memory count pointing
	// past the buffer must error, never index out of range.
	nvals := int(binary.LittleEndian.Uint64(st[8:]))
	for _, off := range []int{8, 16 + 8*nvals} {
		bad := append([]byte(nil), st...)
		for i := 0; i < 8; i++ {
			bad[off+i] = 0x7f
		}
		if _, err := sim.SnapshotCycle(bad); err == nil {
			t.Errorf("snapshot with corrupt count at offset %d accepted", off)
		}
	}

	// Gang lane snapshots share the framing.
	g, ok := p.NewGang(2)
	if !ok {
		t.Fatal("compiled program should gang")
	}
	g.Reset([]int64{40, 90})
	for g.Step(1000) {
	}
	for l := 0; l < 2; l++ {
		got, err := sim.SnapshotCycle(g.SaveLaneState(l))
		if err != nil {
			t.Fatal(err)
		}
		if got != g.LaneCycle(l) {
			t.Errorf("lane %d: SnapshotCycle = %d, want %d", l, got, g.LaneCycle(l))
		}
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes to the one snapshot decoder
// machines and gang lanes share, over a counter and a sieve program.
// Nothing may panic; Machine.RestoreState and Gang.RestoreLaneState
// must accept exactly the same inputs; a rejected input must leave the
// target's snapshot and hash unchanged; an accepted one must re-encode
// byte-identically on both, hash equal on both, and carry the restored
// cycle where SnapshotCycle reads it. The seeds are real machine and
// lane snapshots at several cycles, plus truncations.
func FuzzSnapshotDecode(f *testing.F) {
	sieveSrc, err := machines.SieveSpec(20)
	if err != nil {
		f.Fatal(err)
	}
	var progs []*core.Program
	for name, src := range map[string]string{"counter": machines.Counter(), "sieve": sieveSrc} {
		spec, err := core.ParseString(name, src)
		if err != nil {
			f.Fatal(err)
		}
		p, err := core.Compile(spec, core.Compiled)
		if err != nil {
			f.Fatal(err)
		}
		progs = append(progs, p)
	}
	// fresh returns a machine and a two-lane gang mid-run, the targets
	// every input is restored onto.
	fresh := func(t *testing.T, p *core.Program) (*sim.Machine, *sim.Gang) {
		m := p.NewMachine(core.Options{})
		if err := m.Run(37); err != nil {
			t.Fatal(err)
		}
		g, ok := p.NewGang(2)
		if !ok {
			t.Fatal("compiled program should gang")
		}
		g.Reset([]int64{50, 50})
		g.Step(23)
		return m, g
	}
	for _, p := range progs {
		m := p.NewMachine(core.Options{})
		g, _ := p.NewGang(1)
		for _, cycle := range []int64{0, 17, 100} {
			if err := m.Run(cycle - m.Cycle()); err != nil {
				f.Fatal(err)
			}
			g.Reset([]int64{cycle})
			for g.Step(64) {
			}
			for _, st := range [][]byte{m.SaveState(), g.SaveLaneState(0)} {
				f.Add(st)
				for _, n := range []int{0, 8, 16, len(st) / 2, len(st) - 1} {
					f.Add(st[:n])
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, st []byte) {
		framed, ferr := sim.SnapshotCycle(st)
		for _, p := range progs {
			m, g := fresh(t, p)
			mBefore, mHash := m.SaveState(), m.ArchHash()
			gBefore := append(g.SaveLaneState(0), g.SaveLaneState(1)...)
			gHash := g.LaneArchHash(1)
			merr := m.RestoreState(st)
			gerr := g.RestoreLaneState(1, st)
			if (merr == nil) != (gerr == nil) {
				t.Fatalf("%s: machine restore error %v, lane restore error %v", p.Backend(), merr, gerr)
			}
			if merr != nil {
				if !bytes.Equal(m.SaveState(), mBefore) || m.ArchHash() != mHash {
					t.Fatalf("rejected snapshot (%v) modified the machine", merr)
				}
				if !bytes.Equal(append(g.SaveLaneState(0), g.SaveLaneState(1)...), gBefore) || g.LaneArchHash(1) != gHash {
					t.Fatalf("rejected snapshot (%v) modified the gang", gerr)
				}
				continue
			}
			if !bytes.Equal(m.SaveState(), st) || !bytes.Equal(g.SaveLaneState(1), st) {
				t.Fatal("accepted snapshot does not re-encode byte-identically")
			}
			if m.ArchHash() != g.LaneArchHash(1) {
				t.Fatal("machine and lane restored from one snapshot hash differently")
			}
			if ferr != nil || framed != m.Cycle() {
				t.Fatalf("SnapshotCycle = %d, %v; restored cycle is %d", framed, ferr, m.Cycle())
			}
		}
	})
}
