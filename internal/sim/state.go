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
// (Appendix A). A Machine holds one copy of it; a Gang holds one per
// lane, interleaved so its kernels loop over lanes. Both store it as a
// state: column p's output for slot s at vals[s*stride+p], its cells
// of memory i at arrays[i][p*size:(p+1)*size], its latches and its
// operation counts of memory i at addr/data/opn/ops[i*stride+p]. A
// Machine is column 0 of stride 1, so the
// index expressions below are its own vectors, and everything that
// reads or writes one machine's state as a whole — the snapshot
// format, the architectural hash, the power-on reset — is written once,
// against a column, for both.
//
// A snapshot serializes a column's complete mutable state — values,
// memory arrays, latches, cycle counter and statistics — and excludes
// everything immutable (the layout, the evaluator) and everything
// environmental (trace writers, I/O streams, observers). A snapshot
// taken from one machine or lane therefore restores onto any machine or
// lane of the same specification, on any backend, which is what lets a
// fault campaign simulate a shared golden prefix once and warm-start
// every run from it. The round trip is bit-identical (state_test.go,
// gang_test.go). The position of an attached input stream is not part
// of machine state; warm-starting an input-consuming run needs the
// stream positioned to match the snapshot.
//
// Format (little-endian 64-bit words): magic, slot count, slot values,
// memory count, per memory its cell count and cells, every memory's
// address latch, then data latches, then operation latches, cycle,
// stats.Cycles, per memory its Reads/Writes/Inputs/Outputs.

// SnapshotMagic identifies snapshot format version 1. It is exported
// so generated native workers (gogen.Worker) can
// emit byte-compatible snapshots from the one authoritative constant.
const SnapshotMagic uint64 = 0x4153494d53543101 // "ASIMST" 0x1 0x01

// archHashOffset/archHashPrime define the FNV-1a fold shared by
// Machine.ArchHash and Gang.LaneArchHash: one definition, so the
// execution paths cannot drift apart and digests stay comparable. A
// native worker computes no hash; its snapshot is restored into a
// Machine and hashed here.
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

// reset restores power-on state: every component output and memory
// latch 0, memory arrays zeroed except declared initial values, cycle
// 0, statistics cleared.
func (c column) reset() {
	for k := c.col; k < len(c.vals); k += c.stride {
		c.vals[k] = 0
	}
	for i, mem := range c.layout.Mems {
		row := c.row(i)
		clear(row)
		copy(row, mem.Init)
	}
	for k := c.col; k < len(c.addr); k += c.stride {
		c.addr[k], c.data[k], c.opn[k], c.ops[k] = 0, 0, 0, MemOpStats{}
	}
	*c.cycle = 0
	c.stats.Cycles = 0
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

// stateLen returns the exact byte length of the column's snapshot.
func (c column) stateLen() int {
	nm := len(c.layout.Mems)
	n := 8 * (3 + c.layout.Slots() + nm + 3*nm + 2 + 4*nm)
	for _, mem := range c.layout.Mems {
		n += 8 * mem.Size
	}
	return n
}

// appendState appends the column's snapshot to buf.
func (c column) appendState(buf []byte) []byte {
	buf = slices.Grow(buf, c.stateLen())
	put := func(v int64) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	put(int64(SnapshotMagic))
	put(int64(c.layout.Slots()))
	for k := c.col; k < len(c.vals); k += c.stride {
		put(c.vals[k])
	}
	put(int64(len(c.arrays)))
	for i := range c.arrays {
		row := c.row(i)
		put(int64(len(row)))
		for _, v := range row {
			put(v)
		}
	}
	for _, latch := range [][]int64{c.addr, c.data, c.opn} {
		for k := c.col; k < len(latch); k += c.stride {
			put(latch[k])
		}
	}
	put(*c.cycle)
	put(c.stats.Cycles)
	for k := c.col; k < len(c.ops); k += c.stride {
		ops := c.ops[k]
		put(ops.Reads)
		put(ops.Writes)
		put(ops.Inputs)
		put(ops.Outputs)
	}
	return buf
}

// restoreState loads a snapshot into the column. The framing is
// checked against the column's layout in full before anything is
// written, so a foreign, torn or corrupt snapshot leaves the column
// untouched.
func (c column) restoreState(st []byte) error {
	if _, err := frame(st, c.layout); err != nil {
		return err
	}
	off := 16 // magic, slot count
	get := func() int64 {
		v := int64(binary.LittleEndian.Uint64(st[off:]))
		off += 8
		return v
	}
	for k := c.col; k < len(c.vals); k += c.stride {
		c.vals[k] = get()
	}
	off += 8 // memory count
	for i := range c.arrays {
		off += 8 // cell count
		row := c.row(i)
		for j := range row {
			row[j] = get()
		}
	}
	for _, latch := range [][]int64{c.addr, c.data, c.opn} {
		for k := c.col; k < len(latch); k += c.stride {
			latch[k] = get()
		}
	}
	*c.cycle = get()
	c.stats.Cycles = get()
	for k := c.col; k < len(c.ops); k += c.stride {
		c.ops[k] = MemOpStats{Reads: get(), Writes: get(), Inputs: get(), Outputs: get()}
	}
	return nil
}

// frame walks a snapshot's self-describing framing — magic, slot
// count, memory count, each memory's cell count — and returns the
// offset of the cycle field. Every count is bounds-checked before it is
// used and the total length must match exactly, so a truncated, padded
// or torn snapshot is an error, never a misread. Given a layout, every
// count must also be the layout's.
func frame(st []byte, want *Layout) (int, error) {
	word := func(off int) (int64, bool) {
		if off+8 > len(st) {
			return 0, false
		}
		return int64(binary.LittleEndian.Uint64(st[off:])), true
	}
	// count reads the count word at off: it must fit in the snapshot
	// and, when want >= 0, equal want.
	count := func(off, want int) (int, error) {
		n, ok := word(off)
		switch {
		case !ok || n < 0 || n > int64(len(st)):
			return 0, fmt.Errorf("out of range")
		case want >= 0 && n != int64(want):
			return 0, fmt.Errorf("%d, the program's is %d", n, want)
		}
		return int(n), nil
	}
	slots, mems := -1, -1
	if want != nil {
		slots, mems = want.Slots(), len(want.Mems)
	}
	if magic, ok := word(0); !ok || uint64(magic) != SnapshotMagic {
		return 0, fmt.Errorf("sim: not a machine state snapshot")
	}
	nvals, err := count(8, slots)
	if err != nil {
		return 0, fmt.Errorf("sim: snapshot slot count %v", err)
	}
	off := 16 + 8*nvals
	nmems, err := count(off, mems)
	if err != nil {
		return 0, fmt.Errorf("sim: snapshot memory count %v", err)
	}
	off += 8
	for i := 0; i < nmems; i++ {
		size := -1
		if want != nil {
			size = want.Mems[i].Size
		}
		cells, err := count(off, size)
		if err != nil {
			return 0, fmt.Errorf("sim: snapshot memory %d cell count %v", i, err)
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
	off, err := frame(st, nil)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(st[off:])), nil
}
