package sim_test

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/sim"
	"repro/internal/specgen"
)

// TestLayoutMirrorsAnalysis: a layout carries exactly what the analysis
// knows about slots — names in Order, widths, the memory table, the
// traced slots — and finds every component by name.
func TestLayoutMirrorsAnalysis(t *testing.T) {
	srcs, err := machines.Testdata()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 16; seed++ {
		srcs[string(rune('a'+seed))] = specgen.Generate(rand.New(rand.NewSource(seed)), specgen.Config{Combs: 40, Mems: 6})
	}
	for name, src := range srcs {
		spec, err := core.ParseString(name, src)
		if err != nil {
			t.Fatal(err)
		}
		info, l := spec.Info, sim.NewLayout(spec.Info)
		if l.Slots() != len(info.Order) || len(l.Widths) != len(info.Order) || len(l.Mems) != len(info.Mems) {
			t.Fatalf("%s: layout shape %d/%d/%d, analysis %d slots, %d memories", name, l.Slots(), len(l.Widths), len(l.Mems), len(info.Order), len(info.Mems))
		}
		for slot, c := range info.Order {
			if l.Names[slot] != c.CompName() || int(l.Widths[slot]) != info.OutputWidth(c) {
				t.Errorf("%s: slot %d is %s/%d, analysis has %s/%d", name, slot, l.Names[slot], l.Widths[slot], c.CompName(), info.OutputWidth(c))
			}
			if got, ok := l.Slot(c.CompName()); !ok || got != slot {
				t.Errorf("%s: Slot(%s) = %d, %v; want %d", name, c.CompName(), got, ok, slot)
			}
		}
		for i, m := range info.Mems {
			want := sim.MemLayout{Name: m.Name, Slot: info.Slot[m.Name], Size: m.Size, Init: m.Init}
			if got := l.Mems[i]; got.Name != want.Name || got.Slot != want.Slot || got.Size != want.Size || !slices.Equal(got.Init, want.Init) {
				t.Errorf("%s: memory %d is %+v, analysis has %+v", name, i, got, want)
			}
			if ord, ok := l.Memory(m.Name); !ok || ord != i {
				t.Errorf("%s: Memory(%s) = %d, %v; want %d", name, m.Name, ord, ok, i)
			}
		}
		var traced []int
		for _, n := range info.Traced {
			if slot, ok := info.Slot[n]; ok {
				traced = append(traced, slot)
			}
		}
		if !slices.Equal(traced, l.Traced) {
			t.Errorf("%s: traced slots %v, analysis marks %v", name, l.Traced, info.Traced)
		}
		if _, ok := l.Slot("no such component"); ok {
			t.Errorf("%s: Slot found an undefined name", name)
		}
		if len(info.Comb) > 0 {
			if _, ok := l.Memory(info.Comb[0].CompName()); ok {
				t.Errorf("%s: Memory accepted combinational %s", name, info.Comb[0].CompName())
			}
		}
	}
}

// TestGangCommitFaultsNameTheMemory: every commit-phase fault a gang
// lane can take names the memory that took it, exactly as the machine
// running the same program does — the names come from the layout.
func TestGangCommitFaultsNameTheMemory(t *testing.T) {
	for _, tc := range []struct{ src, mem string }{
		{"#read\ninc count rd .\nA inc 4 count 1\nM count 0 inc 1 1\nM rd count 0 0 2\n.\n", "rd"},
		{"#write\ninc count wr .\nA inc 4 count 1\nM count 0 inc 1 1\nM wr count 5 1 2\n.\n", "wr"},
		{"#input\ninc count dev .\nA inc 4 count 1\nM count 0 inc 1 1\nM dev 0 0 2 1\n.\n", "dev"},
	} {
		spec, err := core.ParseString(tc.mem, tc.src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Compile(spec, core.Compiled)
		if err != nil {
			t.Fatal(err)
		}
		want := p.NewMachine(core.Options{}).Run(8)
		g, _ := p.NewGang(2)
		g.Reset([]int64{8, 8})
		for g.Step(8) {
		}
		var re *sim.RuntimeError
		if !errors.As(want, &re) || re.Component != tc.mem {
			t.Fatalf("%s: machine error %v, want a fault of <%s>", tc.mem, want, tc.mem)
		}
		for l := 0; l < 2; l++ {
			if got := g.LaneErr(l); got == nil || got.Error() != want.Error() {
				t.Errorf("%s lane %d: %v, machine has %v", tc.mem, l, got, want)
			}
		}
	}
}

// TestLayoutSlotConcurrent: the name index is built on first use, and
// machines of one program look names up from many goroutines at once.
func TestLayoutSlotConcurrent(t *testing.T) {
	src, err := machines.SieveSpec(16)
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
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := p.NewMachine(core.Options{})
			for slot, name := range m.Layout().Names {
				if got, ok := m.Layout().Slot(name); !ok || got != slot {
					t.Errorf("Slot(%s) = %d, %v; want %d", name, got, ok, slot)
				}
				m.SetValue(name, int64(slot))
				if m.Value(name) != int64(slot) {
					t.Errorf("%s does not read back", name)
				}
			}
		}()
	}
	wg.Wait()
}
