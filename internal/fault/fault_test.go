package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/sim"
)

// inject lowers faults onto m's layout, gives m the records and
// returns their activation counts.
func inject(t *testing.T, m *sim.Machine, faults ...Fault) []int64 {
	t.Helper()
	recs, err := Lower(m.Layout(), faults)
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]int64, len(recs))
	m.SetFaults(recs, hits)
	return hits
}

func counter(t *testing.T) *sim.Machine {
	t.Helper()
	spec, err := core.ParseString("counter", machines.Counter())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(spec, core.Compiled, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStuckAt0FreezesBit(t *testing.T) {
	m := counter(t)
	// Pin bit 0 of the count register to 0 for the whole run: the
	// counter can only ever show even values.
	inject(t, m, Fault{Component: "count", Bit: 0, Kind: StuckAt0, From: 0, Until: 1 << 30})
	for i := 0; i < 20; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if v := m.Value("count"); v%2 != 0 {
			t.Fatalf("cycle %d: count = %d, want even under stuck-at-0", i, v)
		}
	}
}

func TestStuckAt1(t *testing.T) {
	m := counter(t)
	inject(t, m, Fault{Component: "count", Bit: 0, Kind: StuckAt1, From: 0, Until: 1 << 30})
	for i := 0; i < 20; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if v := m.Value("count"); v%2 != 1 {
			t.Fatalf("cycle %d: count = %d, want odd under stuck-at-1", i, v)
		}
	}
}

func TestTransientFlipOnce(t *testing.T) {
	clean := counter(t)
	if err := clean.Run(10); err != nil {
		t.Fatal(err)
	}
	want := clean.Value("count") + 8 // flipping bit 3 adds 8 (count stays < 8 mod 16... )

	m := counter(t)
	hits := inject(t, m, Fault{Component: "count", Bit: 3, Kind: Flip, From: 5})
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if n := hits[0]; n != 1 {
		t.Errorf("flip applied %d times, want 1", n)
	}
	// The upset at cycle 5 adds 8 to the count permanently (mod 16).
	if got := m.Value("count"); got != (want)%16 {
		t.Errorf("count after flip = %d, want %d", got, want%16)
	}
}

func TestLowerValidation(t *testing.T) {
	lay := counter(t).Layout()
	for _, tc := range []struct {
		what string
		f    Fault
	}{
		{"combinational target", Fault{Component: "inc", Bit: 0, Kind: StuckAt0, Until: 1}},
		{"bad bit", Fault{Component: "count", Bit: 99, Kind: StuckAt0, Until: 1}},
		{"empty window", Fault{Component: "count", Bit: 0, Kind: StuckAt0, From: 5, Until: 2}},
		{"unknown component", Fault{Component: "ghost", Bit: 0, Kind: StuckAt0, Until: 1}},
	} {
		if recs, err := Lower(lay, []Fault{tc.f}); err == nil || recs != nil {
			t.Errorf("%s accepted: %v", tc.what, recs)
		}
		if Check(lay, []Fault{tc.f}) == nil {
			t.Errorf("%s passed Check", tc.what)
		}
	}
}

// TestLowerRecords pins each fault model's record: the mask it applies
// to the memory's output slot and its window of consuming cycles.
func TestLowerRecords(t *testing.T) {
	lay := counter(t).Layout()
	slot, _ := lay.Slot("count")
	recs, err := Lower(lay, []Fault{
		{Component: "count", Bit: 2, Kind: StuckAt0, From: 3, Until: 9},
		{Component: "count", Bit: 2, Kind: StuckAt1, From: 3, Until: 9},
		{Component: "count", Bit: 2, Kind: Flip, From: 3, Until: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.Fault{
		{Slot: slot, And: ^4, From: 3, Until: 9},
		{Slot: slot, And: -1, Or: 4, From: 3, Until: 9},
		{Slot: slot, And: -1, Xor: 4, From: 3, Until: 3},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("records %+v, want %+v", recs, want)
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Component: "count", Bit: 2, Kind: StuckAt1, From: 3, Until: 9}
	if s := f.String(); !strings.Contains(s, "stuck-at-1") || !strings.Contains(s, "3..9") {
		t.Errorf("String = %q", s)
	}
	f = Fault{Component: "count", Bit: 2, Kind: Flip, From: 3}
	if s := f.String(); !strings.Contains(s, "transient-flip") || !strings.Contains(s, "cycle 3") {
		t.Errorf("String = %q", s)
	}
}
