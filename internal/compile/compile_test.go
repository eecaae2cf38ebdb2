package compile

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/interp"
	"repro/internal/rtl/parser"
	"repro/internal/rtl/sem"
	"repro/internal/sim"
	"repro/internal/specgen"
)

func analyze(t *testing.T, src string) *sem.Info {
	t.Helper()
	spec, err := parser.ParseString("t", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestBackendNames(t *testing.T) {
	info := analyze(t, "#c\na .\nA a 1 0 1\n.")
	if New(info).BackendName() != "compiled" {
		t.Error("name wrong")
	}
	if NewWithOptions(info, Options{NoFold: true}).BackendName() != "compiled-nofold" {
		t.Error("nofold name wrong")
	}
}

// cycleOut is one cycle's evaluation through one entry point, reshaped
// to the scalar layout whatever layout the entry point ran on.
type cycleOut struct {
	vals, addr, data, opn []int64
}

// newCycleOut is the state before a cycle: init and zeroed latches.
func newCycleOut(init []int64, mems int) cycleOut {
	return cycleOut{append([]int64(nil), init...), make([]int64, mems), make([]int64, mems), make([]int64, mems)}
}

// entryPoints are the two ways a cycle reaches the kernels. Each runs
// one cycle from the initial value vector init. The gang entry runs n
// live lanes at the front of stride 3, each from its own values (lane l
// adds l*0x111 to every slot of init), and requires the slots at and
// above n — filled with poison — to come back untouched. Lane 0 is the
// entry's result; every other lane must equal StepCycle from its own
// values, so a kernel that read one lane's column for another fails.
var entryPoints = []struct {
	name string
	run  func(t *testing.T, c *Compiled, init []int64, mems int) cycleOut
}{
	{"StepCycle", func(t *testing.T, c *Compiled, init []int64, mems int) cycleOut {
		o := newCycleOut(init, mems)
		c.StepCycle(o.vals, o.addr, o.data, o.opn, 0)
		return o
	}},
	{"StepCycleGang", func(t *testing.T, c *Compiled, init []int64, mems int) cycleOut {
		const stride, n, poison = 3, 2, -7
		lanes := make([]cycleOut, n)
		for l := range lanes {
			lanes[l] = newCycleOut(init, mems)
			for i := range lanes[l].vals {
				lanes[l].vals[i] += int64(l) * 0x111
			}
		}
		spread := func(col func(cycleOut) []int64) []int64 {
			v := make([]int64, len(col(lanes[0]))*stride)
			for i := range v {
				v[i] = poison
			}
			for l, o := range lanes {
				for i, x := range col(o) {
					v[i*stride+l] = x
				}
			}
			return v
		}
		gather := func(v []int64, lane int) []int64 {
			out := make([]int64, len(v)/stride)
			for i := range v {
				switch {
				case i%stride == lane:
					out[i/stride] = v[i]
				case i%stride >= n && v[i] != poison:
					t.Errorf("gang kernel wrote slot %d of row %d, at or above n = %d", i%stride, i/stride, n)
				}
			}
			return out
		}
		vals := spread(func(o cycleOut) []int64 { return o.vals })
		addr := spread(func(o cycleOut) []int64 { return o.addr })
		data := spread(func(o cycleOut) []int64 { return o.data })
		opn := spread(func(o cycleOut) []int64 { return o.opn })
		c.StepCycleGang(vals, addr, data, opn, stride, n, make([]int64, stride))
		for l := 1; l < n; l++ {
			want := lanes[l]
			c.StepCycle(want.vals, want.addr, want.data, want.opn, 0)
			got := cycleOut{gather(vals, l), gather(addr, l), gather(data, l), gather(opn, l)}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("gang lane %d: %+v, StepCycle from its values has %+v", l, got, want)
			}
		}
		return cycleOut{gather(vals, 0), gather(addr, 0), gather(data, 0), gather(opn, 0)}
	}},
}

// foldings are the two arguments the lowering takes.
var foldings = []struct {
	name string
	opts Options
}{{"fold", Options{}}, {"nofold", Options{NoFold: true}}}

// TestEveryConstFunction drives each of the 16 ALU function codes (14
// functions, the unused code and an out-of-range one) through every
// entry point, folded and unfolded, with simple operands and with a
// compound (concatenated) one, requiring the interpreter's outputs and
// latches over a sweep of operand values.
func TestEveryConstFunction(t *testing.T) {
	for funct := 0; funct <= 15; funct++ {
		for _, left := range []string{"l", "l.0.3,r.0.3"} {
			src := "#f\na l r .\n" +
				"A a " + itoa(funct) + " " + left + " r\n" +
				"A l 1 0 m.0.7\nA r 1 0 m.8.15\nM m 0 a 1 1\n.\n"
			info := analyze(t, src)
			it := interp.New(info)
			for _, f := range foldings {
				c := NewWithOptions(info, f.opts)
				for _, seed := range []int64{0, 1, 0x55AA, 0xFFFF, 0x1234, 0xFF00} {
					init := make([]int64, len(info.Order))
					init[info.Slot["m"]] = seed
					want := newCycleOut(init, 1)
					it.StepCycle(want.vals, want.addr, want.data, want.opn, 0)
					for _, ep := range entryPoints {
						if got := ep.run(t, c, init, 1); !reflect.DeepEqual(got, want) {
							t.Errorf("funct %d left %q %s %s seed %#x: %+v, interp has %+v",
								funct, left, f.name, ep.name, seed, got, want)
						}
					}
				}
			}
		}
	}
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}

// TestConstSelectorCollapses: a constant in-range select yields the
// chosen case — simple or compound — through every entry point, folded
// (where the selector is lowered to a copy) or not; a constant
// out-of-range select faults every cycle with the dynamic selector's
// message.
func TestConstSelectorCollapses(t *testing.T) {
	for _, tc := range []struct {
		chosen string
		want   int64
	}{{"20", 20}, {"m.0.3,m.0.3", 0x99}} {
		info := analyze(t, "#s\ns m .\nS s 1 10 "+tc.chosen+" 30\nM m 0 s 1 1\n.")
		init := make([]int64, len(info.Order))
		init[info.Slot["m"]] = 9
		for _, f := range foldings {
			c := NewWithOptions(info, f.opts)
			if folded := !c.prog.Ops[0].Sel; folded != !f.opts.NoFold {
				t.Errorf("case %q %s: selector lowered to a copy = %v", tc.chosen, f.name, folded)
			}
			for _, ep := range entryPoints {
				if got := ep.run(t, c, init, 1).vals[info.Slot["s"]]; got != tc.want {
					t.Errorf("case %q %s %s: const selector = %d, want %d", tc.chosen, f.name, ep.name, got, tc.want)
				}
			}
		}
	}

	// sem warns about the constant out-of-range select but still
	// compiles it; execution must fault.
	info := analyze(t, "#s\ns .\nS s 7 10 20\n.")
	const want = "selector index 7 outside 0..1"
	for _, f := range foldings {
		c := NewWithOptions(info, f.opts)
		for _, ep := range entryPoints {
			func() {
				defer func() {
					var msg string
					switch r := recover().(type) {
					case *sim.RuntimeError:
						msg = r.Msg
					case *sim.GangFault:
						msg = r.Err.Msg
					}
					if msg != want {
						t.Errorf("%s %s: fault %q, want %q", f.name, ep.name, msg, want)
					}
				}()
				ep.run(t, c, make([]int64, len(info.Order)), 0)
			}()
		}
	}
}

// TestNoFoldStillCorrect: with folding disabled the generic paths must
// produce identical results.
func TestNoFoldStillCorrect(t *testing.T) {
	src := `#n
a s m .
A a 4 m 3
S s m.0 a 9
M m 0 s 1 2
.
`
	info := analyze(t, src)
	fold := New(info)
	nofold := NewWithOptions(info, Options{NoFold: true})
	v1 := make([]int64, len(info.Order))
	v2 := make([]int64, len(info.Order))
	latch := make([]int64, 1)
	for cyc := int64(0); cyc < 4; cyc++ {
		v1[info.Slot["m"]] = cyc
		v2[info.Slot["m"]] = cyc
		fold.StepCycle(v1, latch, latch, latch, cyc)
		nofold.StepCycle(v2, latch, latch, latch, cyc)
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("cycle %d slot %d: %d != %d", cyc, i, v1[i], v2[i])
			}
		}
	}
}

// TestMemInputLatching: StepCycle latches the memory inputs from the
// combinational values it just computed, into the parallel slices, and
// leaves the memory output slots alone.
func TestMemInputLatching(t *testing.T) {
	info := analyze(t, "#m\nx m n .\nA x 4 m n\nM m x.0.1 x 1 4\nM n 0 x 0 2\n.")
	c := New(info)
	vals := make([]int64, len(info.Order))
	vals[info.Slot["m"]] = 2
	vals[info.Slot["n"]] = 3
	addr := make([]int64, 2)
	data := make([]int64, 2)
	opn := make([]int64, 2)
	c.StepCycle(vals, addr, data, opn, 0) // x = 5
	if vals[info.Slot["x"]] != 5 || vals[info.Slot["m"]] != 2 || vals[info.Slot["n"]] != 3 {
		t.Fatalf("vals = %v, want x 5, m 2, n 3", vals)
	}
	if addr[0] != 5&3 || data[0] != 5 || opn[0] != 1 {
		t.Errorf("m latches = %d %d %d", addr[0], data[0], opn[0])
	}
	// n is a constant read: its dead data latch is elided to 0.
	if addr[1] != 0 || data[1] != 0 || opn[1] != 0 {
		t.Errorf("n latches = %d %d %d", addr[1], data[1], opn[1])
	}
}

// TestDeadDataLatchElision: a constant-read memory never consumes its
// data expression — simple or compound — so the folded latch returns 0
// through every entry point, while the unfolded build still evaluates it.
func TestDeadDataLatchElision(t *testing.T) {
	for _, tc := range []struct {
		data string
		live int64 // the data operand's value when x = 10, m = 1
	}{{"x", 10}, {"x.0.3,m.0.1", 10<<2 | 1}} {
		info := analyze(t, "#d\nx m .\nA x 4 m 9\nM m 0 "+tc.data+" 0 2\n.\n")
		init := make([]int64, len(info.Order))
		init[info.Slot["m"]] = 1
		for _, f := range foldings {
			want := int64(0)
			if f.opts.NoFold {
				want = tc.live
			}
			c := NewWithOptions(info, f.opts)
			for _, ep := range entryPoints {
				if got := ep.run(t, c, init, 1).data[0]; got != want {
					t.Errorf("data %q %s %s: data latch = %d, want %d", tc.data, f.name, ep.name, got, want)
				}
			}
		}
	}
}

// TestShiftKeepsLoopSemantics: funct 6 retains dologic's loop (shift
// by zero yields zero), even under folding.
func TestShiftKeepsLoopSemantics(t *testing.T) {
	info := analyze(t, "#s\na m .\nA a 6 1 m\nM m 0 0 0 1\n.")
	c := New(info)
	vals := make([]int64, len(info.Order))
	latch := make([]int64, 1)
	vals[info.Slot["m"]] = 0
	c.StepCycle(vals, latch, latch, latch, 0)
	if vals[info.Slot["a"]] != 0 {
		t.Errorf("shift by 0 = %d, want 0 (the thesis' quirk)", vals[info.Slot["a"]])
	}
	vals[info.Slot["m"]] = 4
	c.StepCycle(vals, latch, latch, latch, 0)
	if vals[info.Slot["a"]] != 16 {
		t.Errorf("1<<4 = %d", vals[info.Slot["a"]])
	}
	if got := sim.DoLogic(sim.FnShl, 1, 4); got != 16 {
		t.Errorf("DoLogic shift = %d", got)
	}
}

// TestConstExprFolding: a fully constant concatenation compiles to a
// single constant closure with the same value the interpreter computes.
func TestConstExprFolding(t *testing.T) {
	src := "#c\na m .\nA a 1 0 5.3,#10,%1.1\nM m 0 a 1 1\n.\n"
	info := analyze(t, src)
	c := New(info)
	it := interp.New(info)
	v1 := make([]int64, len(info.Order))
	v2 := make([]int64, len(info.Order))
	latch := make([]int64, 1)
	c.StepCycle(v1, latch, latch, latch, 0)
	it.StepCycle(v2, latch, latch, latch, 0)
	if v1[info.Slot["a"]] != v2[info.Slot["a"]] {
		t.Errorf("const fold %d != interp %d", v1[info.Slot["a"]], v2[info.Slot["a"]])
	}
}

// footprintSpecs are the designs the served unique_specs workload
// compiles one of per job: the lowering runs on every program-cache
// miss, so what it allocates is what that workload retains.
func footprintSpecs(tb testing.TB) []*sem.Info {
	infos := make([]*sem.Info, 64)
	for seed := range infos {
		src := specgen.Generate(rand.New(rand.NewSource(int64(seed))), specgen.Config{Combs: 40, Mems: 6})
		spec, err := parser.ParseString("footprint", src)
		if err != nil {
			tb.Fatal(err)
		}
		if infos[seed], err = sem.Analyze(spec); err != nil {
			tb.Fatal(err)
		}
	}
	return infos
}

// TestCompileFootprint bounds what one New costs in allocations and
// bytes. A closure per operand measured 563 allocations; a fat operand
// struct measured 55.8 KB per program and pushed unique_specs' peak RSS
// past its bound.
func TestCompileFootprint(t *testing.T) {
	infos := footprintSpecs(t)
	const maxAllocs, maxBytes = 150, 24 << 10
	var keep *Compiled
	for seed, info := range infos {
		if allocs := testing.AllocsPerRun(10, func() { keep = New(info) }); allocs > maxAllocs {
			t.Errorf("seed %d: %.0f allocations per New, want <= %d", seed, allocs, maxAllocs)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, info := range infos {
		keep = New(info)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(infos)); per > maxBytes {
		t.Errorf("%d bytes allocated per program, want <= %d", per, maxBytes)
	}
}

// BenchmarkCompileNew is the in-package cause of core.compile_us_p50.
func BenchmarkCompileNew(b *testing.B) {
	infos := footprintSpecs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(infos[i%len(infos)])
	}
}
