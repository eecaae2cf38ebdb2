package sim_test

// The Machine contract that callers rely on between calls: a runtime
// error leaves the machine at the failing cycle, so the next call
// re-executes that cycle and fails the same way; fault records and
// their hit counts belong to the caller, not to the machine state, so
// Reset and RestoreState keep them.

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func coreMachine(t *testing.T, src string, b core.Backend) *sim.Machine {
	t.Helper()
	spec, err := core.ParseString("contract", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(spec, b, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRuntimeErrorRepeatsAtFailingCycle(t *testing.T) {
	cases := []struct {
		name, src string
		cycle     int64
		msg       string
	}{
		{"selector", "#sel\ns m .\nM m 0 0 0 -1 7\nS s m 10 20\n.\n", 1, "selector index 7 outside 0..1"},
		{"address", "#addr\nm five .\nA five 1 0 5\nM m five 0 0 2\n.\n", 0, "read address 5 outside 0..1"},
	}
	for _, b := range []core.Backend{core.Interp, core.Compiled} {
		for _, c := range cases {
			m := coreMachine(t, c.src, b)
			check := func(call string, err error) {
				t.Helper()
				var re *sim.RuntimeError
				if !errors.As(err, &re) || re.Cycle != c.cycle || re.Msg != c.msg {
					t.Fatalf("%s/%s %s: error %v, want %q at cycle %d", b, c.name, call, err, c.msg, c.cycle)
				}
				if m.Cycle() != c.cycle || m.Stats().Cycles != c.cycle {
					t.Fatalf("%s/%s %s: machine at cycle %d (stats %d), want %d", b, c.name, call, m.Cycle(), m.Stats().Cycles, c.cycle)
				}
			}
			check("Run", m.Run(5))
			check("second Run", m.Run(5))
			check("Step", m.Step())
			n, ok, err := m.RunUntil(func(*sim.Machine) bool { return false }, 5)
			if n != 0 || ok {
				t.Fatalf("%s/%s RunUntil: %d cycles, ok %v; want 0, false", b, c.name, n, ok)
			}
			check("RunUntil", err)
		}
	}
}

func TestFaultsSurviveResetAndRestore(t *testing.T) {
	for _, b := range []core.Backend{core.Interp, core.Compiled} {
		m := coreMachine(t, counterSrc, b)
		slot, _ := m.Layout().Slot("count")
		// Flip bit 3 of count once, after the commit that advances the
		// machine to cycle 2: the count runs 1, 2^8=10, 11, 12, 13.
		recs := []sim.Fault{{Slot: slot, And: -1, Xor: 8, From: 2, Until: 2}}
		hits := make([]int64, 1)
		m.SetFaults(recs, hits)
		run := func(when string, wantHits int64) {
			t.Helper()
			if err := m.Run(5); err != nil {
				t.Fatal(err)
			}
			if got := m.Value("count"); got != 13 || hits[0] != wantHits {
				t.Fatalf("%s %s: count %d, hits %d; want 13, %d", b, when, got, hits[0], wantHits)
			}
		}
		run("first run", 1)
		m.Reset()
		power := m.SaveState()
		run("after Reset", 2)
		if err := m.RestoreState(power); err != nil {
			t.Fatal(err)
		}
		run("after RestoreState", 3)
		m.Reset()
		m.SetFaults(nil, nil)
		if err := m.Run(5); err != nil || m.Value("count") != 5 {
			t.Fatalf("%s without faults: count %d, err %v; want 5", b, m.Value("count"), err)
		}
	}
}
