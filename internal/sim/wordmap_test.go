package sim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machines"
	"repro/internal/rtl/parser"
	"repro/internal/rtl/sem"
	"repro/internal/specgen"
)

// stateOnly is an evaluator that never steps: the word map tests write
// state by hand and only encode and decode it.
type stateOnly struct{}

func (stateOnly) BackendName() string                                              { return "state-only" }
func (stateOnly) StepCycle(vals, addr, data, opn []int64, cycle int64)             {}
func (stateOnly) StepCycleGang(vals, addr, data, opn []int64, s, n int, c []int64) {}

// wordMapLayouts returns the layout of every canonical spec and of a
// generated three-memory design.
func wordMapLayouts(t *testing.T) map[string]*Layout {
	t.Helper()
	srcs, err := machines.Testdata()
	if err != nil {
		t.Fatal(err)
	}
	srcs["specgen-3mem"] = specgen.Generate(rand.New(rand.NewSource(7)), specgen.Config{Combs: 6, Mems: 3})
	lays := map[string]*Layout{}
	for name, src := range srcs {
		spec, err := parser.ParseString(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		info, err := sem.Analyze(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lays[name] = NewLayout(info)
	}
	return lays
}

// encode returns the snapshot bytes of a word image.
func encode(img []int64) []byte {
	st := make([]byte, 0, 8*len(img))
	for _, v := range img {
		st = binary.LittleEndian.AppendUint64(st, uint64(v))
	}
	return st
}

// fill writes a distinct value, derived from its map offset, into every
// word of c the map names, through the state's own fields — not through
// the codec under test — and returns the snapshot words it expects: the
// map's framing words and the written values.
func fill(t *testing.T, c column, w WordMap) []int64 {
	t.Helper()
	want := w.PowerOn() // framing words and Init cells
	named := make([]bool, w.Len())
	mark := func(off int) {
		if off < 0 || off >= w.Len() || named[off] {
			t.Fatalf("offset %d named twice or outside the %d-word map", off, w.Len())
		}
		named[off] = true
	}
	set := func(off int, p *int64) {
		mark(off)
		v := int64(off)*7919 + 1
		*p, want[off] = v, v
	}
	for k := 0; k < c.layout.Slots(); k++ {
		set(w.Slot(k), &c.vals[k*c.stride+c.col])
	}
	for i := range c.layout.Mems {
		row := c.row(i)
		for j := range row {
			set(w.Cells(i)+j, &row[j])
		}
		k := i*c.stride + c.col
		set(w.Addr(i), &c.addr[k])
		set(w.Data(i), &c.data[k])
		set(w.Opn(i), &c.opn[k])
		ops := &c.ops[k]
		for op, p := range []*int64{&ops.Reads, &ops.Writes, &ops.Inputs, &ops.Outputs} {
			set(w.MemOps(i)+op, p)
		}
	}
	set(w.Cycle(), c.cycle)
	set(w.StatsCycles(), &c.stats.Cycles)
	w.header(func(off int, _ int64) { mark(off) })
	for off, ok := range named {
		if !ok {
			t.Fatalf("word %d of %d is neither framing nor state", off, w.Len())
		}
	}
	return want
}

// TestWordMapPlacesEveryWord: every word the map names lands at its
// offset in a machine's and a gang lane's snapshot, a fresh snapshot is
// the map's power-on image, and an image built only from the map
// restores onto both and re-encodes byte for byte.
func TestWordMapPlacesEveryWord(t *testing.T) {
	for name, lay := range wordMapLayouts(t) {
		w := lay.WordMap()
		m := New(lay, stateOnly{}, Options{})
		g, ok := NewGang(lay, stateOnly{}, 3)
		if !ok {
			t.Fatal("state-only evaluator should gang")
		}
		g.Reset([]int64{5, 5, 5})
		const lane = 1
		poweron := encode(w.PowerOn())
		if !bytes.Equal(m.SaveState(), poweron) || !bytes.Equal(g.SaveLaneState(lane), poweron) {
			t.Errorf("%s: power-on snapshot is not the map's power-on image", name)
		}

		targets := []struct {
			col     column
			save    func() []byte
			restore func([]byte) error
		}{
			{m.column(), m.SaveState, m.RestoreState},
			{g.column(g.slotOf(lane)), func() []byte { return g.SaveLaneState(lane) },
				func(st []byte) error { return g.RestoreLaneState(lane, st) }},
		}
		for ti, tg := range targets {
			want := encode(fill(t, tg.col, w))
			if got := tg.save(); !bytes.Equal(got, want) {
				t.Errorf("%s target %d: snapshot does not place the words where the map says", name, ti)
			}

			img := w.PowerOn()
			for off := range img {
				img[off] += int64(off)*31 + 3
			}
			w.header(func(off int, v int64) { img[off] = v })
			st := encode(img)
			if err := tg.restore(st); err != nil {
				t.Fatalf("%s target %d: image built from the map rejected: %v", name, ti, err)
			}
			if got := tg.save(); !bytes.Equal(got, st) {
				t.Errorf("%s target %d: restored image does not re-encode byte for byte", name, ti)
			}
		}
	}
}

// TestWordMapFormat1 pins snapshot format 1, which durable segments
// keep on disk: the offsets of a two-memory layout, written out by
// hand, and its power-on image.
func TestWordMapFormat1(t *testing.T) {
	lay := &Layout{Names: []string{"a", "b", "m", "n"}, Mems: []MemLayout{
		{Name: "m", Slot: 2, Size: 3, Init: []int64{7}},
		{Name: "n", Slot: 3, Size: 2},
	}}
	w := lay.WordMap()
	got := []int{w.Slot(0), w.Slot(3), w.Cells(0), w.Cells(1), w.Addr(0), w.Addr(1), w.Data(0), w.Data(1),
		w.Opn(0), w.Opn(1), w.Cycle(), w.StatsCycles(), w.MemOps(0), w.MemOps(1), w.Len()}
	want := []int{2, 5, 8, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22, 26, 30}
	if !slices.Equal(got, want) {
		t.Errorf("offsets %v, want %v", got, want)
	}
	img := make([]int64, 30)
	img[0], img[1], img[6], img[7], img[8], img[11] = int64(snapshotMagic), 4, 2, 3, 7, 2
	if on := w.PowerOn(); !slices.Equal(on, img) {
		t.Errorf("power-on image %v, want %v", on, img)
	}
}
