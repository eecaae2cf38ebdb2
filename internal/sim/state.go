package sim

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Machine state: one definition, two layouts.
//
// The thesis defines one machine state — the component outputs, the
// memory arrays and the latched memory inputs, committed in two phases
// (Appendix A). A Gang holds one copy of it per lane, interleaved so
// its kernels loop over lanes, as a state: column p's output for slot s
// at vals[s*stride+p], its cells of memory i at
// arrays[i][p*size:(p+1)*size], its latches and its operation counts
// of memory i at addr/data/opn/ops[i*stride+p]. A Machine is a one-lane
// gang, column 0 of stride 1, where the index expressions below are
// plain vectors. Everything that reads or writes one machine's state as
// a whole — the snapshot format, the architectural hash, the power-on
// reset — is written once, against a column, for every lane.
//
// A snapshot serializes a column's complete mutable state — values,
// memory arrays, latches, cycle counter and statistics — and excludes
// everything immutable (the layout, the evaluator) and everything
// environmental (trace writers, I/O streams, observers, fault
// records). A snapshot taken from one machine or lane therefore
// restores onto any machine or lane of the same specification, on any
// backend, which is what lets a fault campaign simulate a shared golden
// prefix once and warm-start every run from it. The round trip is
// bit-identical (state_test.go, gang_test.go). The position of an
// attached input stream is not part of machine state; warm-starting an
// input-consuming run needs the stream positioned to match the
// snapshot.
//
// Format 1 is a sequence of little-endian 64-bit words: magic, slot
// count, slot values, memory count, per memory its cell count and
// cells, every memory's address latch, then data latches, then
// operation latches, cycle, stats.Cycles, per memory its
// Reads/Writes/Inputs/Outputs. WordMap is that sequence as data, the
// offset of each word for a layout; the codec, the framing check and
// the power-on reset below read it, and so does the native worker,
// which keeps its whole state in an array laid out on it.

// snapshotMagic identifies snapshot format version 1.
const snapshotMagic uint64 = 0x4153494d53543101 // "ASIMST" 0x1 0x01

// archHashOffset/archHashPrime define the FNV-1a fold shared by
// Machine.ArchHash and Gang.LaneArchHash: one definition, so the
// execution paths cannot drift apart and digests stay comparable. A
// native worker computes no hash; its snapshot is restored into a gang
// lane and hashed here.
const (
	archHashOffset = uint64(14695981039346656037)
	archHashPrime  = uint64(1099511628211)
)

// state holds stride columns of one program's machine state.
type state struct {
	layout *Layout
	stride int

	vals   []int64   // [slot*stride+col]
	arrays [][]int64 // per memory ordinal, column-major: [col*size+cell]
	addr   []int64   // [mem*stride+col]
	data   []int64   // [mem*stride+col]
	opn    []int64   // [mem*stride+col]

	ops []MemOpStats // [mem*stride+col]: the column's Stats.MemOps
}

// Fault is a fault record, the form internal/fault lowers each fault
// model to: after every commit, while the column's advanced cycle
// counter — the cycle that will consume the register — lies in
// [From, Until], the output register at Slot becomes
// (v&And | Or) ^ Xor. Faults target memory outputs, which are never
// bit-plane resident, so one column function applies them for a
// Machine and for every gang lane alike.
type Fault struct {
	Slot         int
	And, Or, Xor int64
	From, Until  int64
}

func (f Fault) apply(v int64) int64 { return (v&f.And | f.Or) ^ f.Xor }

func newState(layout *Layout, stride int) state {
	nm := len(layout.Mems)
	s := state{
		layout: layout,
		stride: stride,
		vals:   make([]int64, layout.Slots()*stride),
		arrays: make([][]int64, nm),
		addr:   make([]int64, nm*stride),
		data:   make([]int64, nm*stride),
		opn:    make([]int64, nm*stride),
		ops:    make([]MemOpStats, nm*stride),
	}
	for i, mem := range layout.Mems {
		s.arrays[i] = make([]int64, mem.Size*stride)
	}
	return s
}

// column is one machine's state inside a state: column col, with its
// cycle counter and its statistics' cycle count (its memory operation
// counts are in the state).
type column struct {
	*state
	col   int
	cycle *int64
	stats *Stats
}

// row returns the column's cells of memory i.
func (c column) row(i int) []int64 {
	size := c.layout.Mems[i].Size
	return c.arrays[i][c.col*size : (c.col+1)*size]
}

// Cells reads one machine's state by component name: a Machine's, or
// a gang lane's (Gang.Lane). A custom campaign digest reads its run
// through it, so it never needs a machine of its own.
type Cells interface {
	// Value returns a component's current output (for memories, the
	// output register). It panics if the name is unknown.
	Value(name string) int64
	// MemCell returns one cell of a memory's array. It panics if the
	// name is unknown or the index is outside the memory.
	MemCell(name string, index int) int64
}

func (c column) Value(name string) int64 {
	slot, ok := c.layout.Slot(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown component %q", name))
	}
	return c.vals[slot*c.stride+c.col]
}

func (c column) MemCell(name string, index int) int64 {
	i, ok := c.layout.Memory(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown memory %q", name))
	}
	return c.row(i)[index]
}

// reset restores power-on state: every word the snapshot word map
// names 0 except each memory's declared initial cells — the map's
// PowerOn image — so a reset column's snapshot is a fresh one's.
func (c column) reset() {
	c.words(c.layout.WordMap(), func(_ int, v *int64) { *v = 0 }, func(i int, cells []int64) {
		clear(cells)
		copy(cells, c.layout.Mems[i].Init)
	})
}

// inject applies fault records to the column after a commit, adding 1
// to hits[k] on each cycle record k changes its register's value.
func (c column) inject(recs []Fault, hits []int64) {
	for k, f := range recs {
		v := &c.vals[f.Slot*c.stride+c.col]
		if nv := f.apply(*v); nv != *v && *c.cycle >= f.From && *c.cycle <= f.Until {
			*v = nv
			hits[k]++
		}
	}
}

// archHash folds the column's architectural state — the slot values
// and every memory array, in slot/ordinal order — into a 64-bit
// FNV-1a-style hash, one multiply per word. It deliberately excludes
// the memory-input latches, whose values are backend-dependent scratch
// (a compiled backend elides dead data latches), so identical
// architectures hash equal on every backend.
func (c column) archHash() uint64 {
	h := archHashOffset
	for k := c.col; k < len(c.vals); k += c.stride {
		h = (h ^ uint64(c.vals[k])) * archHashPrime
	}
	for i := range c.arrays {
		for _, v := range c.row(i) {
			h = (h ^ uint64(v)) * archHashPrime
		}
	}
	return h
}

// WordMap is the word map of one layout's snapshot: the offset, in
// 64-bit words from the start, of every word a snapshot holds. It is
// the format's one description (see the top of this file), so a format
// change lands here once.
type WordMap struct {
	lay   *Layout
	latch int // offset of memory 0's address latch
}

// WordMap returns the layout's snapshot word map.
func (l *Layout) WordMap() WordMap {
	w := WordMap{lay: l}
	w.latch = w.Cells(len(l.Mems)) - 1
	return w
}

// Slot returns the offset of value slot k. Word 0 is the magic, word 1
// the slot count.
func (w WordMap) Slot(k int) int { return 2 + k }

// Cells returns the offset of memory i's cell 0. The memory count
// follows the value slots, and each memory's cell count precedes its
// cells.
func (w WordMap) Cells(i int) int {
	off := w.Slot(w.lay.Slots()) + 2
	for _, mem := range w.lay.Mems[:i] {
		off += mem.Size + 1
	}
	return off
}

// Addr, Data and Opn return the offsets of memory i's address, data and
// operation latches: every memory's address latch, then every data
// latch, then every operation latch.
func (w WordMap) Addr(i int) int { return w.latch + i }
func (w WordMap) Data(i int) int { return w.Addr(len(w.lay.Mems) + i) }
func (w WordMap) Opn(i int) int  { return w.Data(len(w.lay.Mems) + i) }

// Cycle returns the offset of the cycle counter, and StatsCycles that
// of the statistics' cycle count after it.
func (w WordMap) Cycle() int       { return w.Opn(len(w.lay.Mems)) }
func (w WordMap) StatsCycles() int { return w.Cycle() + 1 }

// MemOps returns the offset of memory i's operation counts, which are
// indexed by operation: MemOps(i)+OpRead holds its Reads, then come its
// Writes, Inputs and Outputs (MemOpStats' field order).
func (w WordMap) MemOps(i int) int { return w.Cycle() + 2 + 4*i }

// Len returns the snapshot's length in words.
func (w WordMap) Len() int { return w.MemOps(len(w.lay.Mems)) }

// header calls fn with the offset and value of each framing word: the
// magic, the slot count, the memory count and each memory's cell count.
func (w WordMap) header(fn func(off int, v int64)) {
	fn(0, int64(snapshotMagic))
	fn(1, int64(w.lay.Slots()))
	fn(w.Slot(w.lay.Slots()), int64(len(w.lay.Mems)))
	for i, mem := range w.lay.Mems {
		fn(w.Cells(i)-1, int64(mem.Size))
	}
}

// PowerOn returns the snapshot of a reset machine as words: the framing
// words and every memory's declared initial cells, zero elsewhere. It is
// built on each call and kept by no program.
func (w WordMap) PowerOn() []int64 {
	img := make([]int64, w.Len())
	w.header(func(off int, v int64) { img[off] = v })
	for i, mem := range w.lay.Mems {
		copy(img[w.Cells(i):], mem.Init)
	}
	return img
}

// check vets a snapshot against the map before anything is restored
// from it: its exact length and every framing word, the magic included,
// must be the layout's, so a foreign, torn or corrupt snapshot is an
// error, never a misread.
func (w WordMap) check(st []byte) error {
	if len(st) != 8*w.Len() {
		return fmt.Errorf("sim: snapshot is %d bytes, the program's are %d", len(st), 8*w.Len())
	}
	var err error
	w.header(func(off int, v int64) {
		if got := int64(binary.LittleEndian.Uint64(st[8*off:])); err == nil && got != v {
			err = fmt.Errorf("sim: snapshot framing word %d is %#x, the program's is %#x", off, got, v)
		}
	})
	return err
}

// words calls word with the map offset and the address of each of the
// column's state words outside the memories — value slots, latches,
// operation counts, cycle and statistics' cycle count — and row with
// each memory's ordinal and cells, which start at w.Cells(i).
func (c column) words(w WordMap, word func(off int, v *int64), row func(i int, cells []int64)) {
	for k := 0; k < c.layout.Slots(); k++ {
		word(w.Slot(k), &c.vals[k*c.stride+c.col])
	}
	for i := range c.arrays {
		row(i, c.row(i))
		k := i*c.stride + c.col
		word(w.Addr(i), &c.addr[k])
		word(w.Data(i), &c.data[k])
		word(w.Opn(i), &c.opn[k])
		ops, off := &c.ops[k], w.MemOps(i)
		word(off+OpRead, &ops.Reads)
		word(off+OpWrite, &ops.Writes)
		word(off+OpInput, &ops.Inputs)
		word(off+OpOutput, &ops.Outputs)
	}
	word(w.Cycle(), c.cycle)
	word(w.StatsCycles(), &c.stats.Cycles)
}

// appendState appends the column's snapshot to buf.
func (c column) appendState(buf []byte) []byte {
	w := c.layout.WordMap()
	n := len(buf)
	buf = slices.Grow(buf, 8*w.Len())[:n+8*w.Len()]
	st := buf[n:]
	put := func(off int, v int64) { binary.LittleEndian.PutUint64(st[8*off:], uint64(v)) }
	w.header(put)
	c.words(w, func(off int, v *int64) { put(off, *v) }, func(i int, cells []int64) {
		row := st[8*w.Cells(i):][:0]
		for _, v := range cells {
			row = binary.LittleEndian.AppendUint64(row, uint64(v))
		}
	})
	return buf
}

// restoreState loads a snapshot into the column. The snapshot is
// checked against the column's layout in full before anything is
// written, so a foreign, torn or corrupt snapshot leaves the column
// untouched.
func (c column) restoreState(st []byte) error {
	w := c.layout.WordMap()
	if err := w.check(st); err != nil {
		return err
	}
	get := func(off int) int64 { return int64(binary.LittleEndian.Uint64(st[8*off:])) }
	c.words(w, func(off int, v *int64) { *v = get(off) }, func(i int, cells []int64) {
		row := st[8*w.Cells(i):]
		for j := range cells {
			cells[j] = int64(binary.LittleEndian.Uint64(row))
			row = row[8:]
		}
	})
	return nil
}

// frame walks a snapshot's self-describing framing without a layout —
// magic, slot count, memory count, each memory's cell count — and
// returns the offset of the cycle field. Every count is bounds-checked
// before it is used and the total length must match exactly, so a
// truncated, padded or torn snapshot is an error, never a misread.
func frame(st []byte) (int, error) {
	// count reads the count word at off, which must fit in the
	// snapshot and count no more words than it holds.
	count := func(off int) (int, bool) {
		if off+8 > len(st) {
			return 0, false
		}
		n := int64(binary.LittleEndian.Uint64(st[off:]))
		return int(n), n >= 0 && n <= int64(len(st))
	}
	if len(st) < 8 || binary.LittleEndian.Uint64(st) != snapshotMagic {
		return 0, fmt.Errorf("sim: not a machine state snapshot")
	}
	nvals, ok := count(8)
	if !ok {
		return 0, fmt.Errorf("sim: snapshot slot count out of range")
	}
	off := 16 + 8*nvals
	nmems, ok := count(off)
	if !ok {
		return 0, fmt.Errorf("sim: snapshot memory count out of range")
	}
	off += 8
	for i := 0; i < nmems; i++ {
		cells, ok := count(off)
		if !ok {
			return 0, fmt.Errorf("sim: snapshot memory %d cell count out of range", i)
		}
		off += 8 + 8*cells
	}
	off += 3 * 8 * nmems // addr/data/opn latches
	// cycle + stats.Cycles + 4 counters per memory complete the layout.
	if n := off + 16 + 4*8*nmems; len(st) != n {
		return 0, fmt.Errorf("sim: snapshot is %d bytes, framing says %d", len(st), n)
	}
	return off, nil
}

// SnapshotCycle reads the cycle counter out of a state snapshot
// without restoring it onto a machine. The snapshot layout is
// self-describing (magic, slot count, per-memory lengths), so the
// cycle field's offset can be derived from the bytes alone — which is
// what lets a durability layer validate a checkpoint record's claimed
// cycle against the snapshot it frames before trusting either. A
// malformed or truncated snapshot is rejected with an error.
func SnapshotCycle(st []byte) (int64, error) {
	off, err := frame(st)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(st[off:])), nil
}
