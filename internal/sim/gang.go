package sim

import (
	"encoding/binary"
	"fmt"
)

// Gang execution: many machines of one program stepped in lockstep
// over struct-of-arrays state.
//
// A Machine is array-of-structs: each machine owns its value vector,
// and a fleet of N machines pays N component dispatches per component
// per cycle. A Gang transposes that layout — one flat vector per value
// slot and per memory across all lanes — so a GangStepper backend can
// evaluate each component once per cycle as a loop over lanes, with
// the per-component dispatch cost amortized across the whole gang.
// The scalar path's per-cycle contract is preserved exactly: lanes are
// observationally identical to N independent machines running the same
// program (same architectural state, statistics, runtime errors at the
// same cycles), which the cross-path equivalence tests enforce.
//
// Divergence is handled with an active-lane list: a lane leaves the
// gang when it reaches its target cycle (halts) or hits a runtime
// error (faults out), and the remaining lanes keep stepping. Because a
// cycle's evaluation phase is idempotent — combinational outputs and
// input latches are pure functions of the pre-commit state — a lane
// fault during evaluation simply deactivates the lane and re-runs the
// cycle's evaluation for the survivors; memory commit, which does
// mutate state, handles lane faults in place without re-running.

// GangStepper is an optional Evaluator capability: a backend that can
// evaluate one cycle for a whole gang of lanes in component-major
// order — for each combinational component (in dependency order) and
// each memory latch, one loop over the active lanes — against the
// struct-of-arrays layout a Gang maintains.
//
// Layout: vals[slot*stride+lane] is lane's output for slot;
// addr/data/opn[mem*stride+lane] are lane's latched memory inputs for
// memory ordinal mem. active lists the lane indices to evaluate, and
// cycles[lane] is each lane's current cycle (for runtime-error
// reporting; active lanes need not agree on it).
//
// For every active lane the result must be bit-identical to
// StepCycle/Comb+MemInputs on a Machine in the same state. A per-lane
// runtime error is reported by panicking with *GangFault (use
// FailLane); the gang recovers it, faults the lane out and re-runs the
// evaluation for the remaining lanes, so kernels must not cache state
// across calls.
type GangStepper interface {
	Evaluator

	StepCycleGang(vals []int64, addr, data, opn []int64, stride int, active []int, cycles []int64)
}

// CanGang reports whether an evaluator supports gang execution.
func CanGang(e Evaluator) bool {
	_, ok := e.(GangStepper)
	return ok
}

// BitGangStepper is an optional GangStepper capability: a backend
// whose gang kernels keep selected 1-bit component outputs as packed
// bit-planes — one uint64 word per 64 lanes per plane — and evaluate
// the logic components over them one word operation per 64 lanes,
// falling back to the lane-loop kernels per component everywhere else.
//
// BitPlaneSlots returns the value slot of each packed plane, in plane
// order; an empty slice means the backend chose not to bit-parallelize
// this program (too few eligible components) and the gang must use the
// plain StepCycleGang path. The returned slice is immutable.
//
// StepCycleGangBits is StepCycleGang with the plane state threaded
// through: planes[p*pwords+w] holds plane p's word w, and lane l's bit
// lives at word l>>6, bit l&63. words is how many words per plane the
// kernels must process to cover every active lane (the gang trims it
// to the live span); bits beyond the live span may hold garbage. After
// the call, for every active lane the plane bits and the vals vector
// together are bit-identical to StepCycleGang's vals: a plane slot's
// architectural value is its lane bit (0 or 1), and the gang
// materializes bits back into vals whenever lane state is observed.
type BitGangStepper interface {
	GangStepper

	BitPlaneSlots() []int
	StepCycleGangBits(vals []int64, planes []uint64, addr, data, opn []int64, stride, pwords, words int, active []int, cycles []int64)
}

// CanBitGang reports whether an evaluator has bit-parallel gang
// kernels for its program (implements BitGangStepper and elected at
// least one bit-plane).
func CanBitGang(e Evaluator) bool {
	bs, ok := e.(BitGangStepper)
	return ok && len(bs.BitPlaneSlots()) > 0
}

// GangFault carries a per-lane runtime error out of a gang kernel.
type GangFault struct {
	Lane int
	Err  *RuntimeError
}

// FailLane panics with a GangFault wrapping the same RuntimeError the
// scalar path's Fail would produce, so a faulted lane reports exactly
// the error its stand-alone machine would.
func FailLane(lane int, component string, cycle int64, format string, args ...interface{}) {
	panic(&GangFault{Lane: lane, Err: &RuntimeError{Component: component, Cycle: cycle, Msg: fmt.Sprintf(format, args...)}})
}

// Gang holds N lanes of one program's mutable state in struct-of-arrays
// form and steps them in lockstep through a GangStepper backend. Lanes
// correspond one-to-one to hook-free machines: no tracing, no I/O, no
// observers (an input operation faults the lane, exactly as it faults a
// machine with no input attached; output operations are counted and
// discarded).
type Gang struct {
	layout *Layout
	eval   GangStepper
	stride int // lane capacity; the slot-to-slot distance in vals

	vals   []int64   // [slot*stride+slot-column], indexed by physical slot
	arrays [][]int64 // per memory ordinal, lane-major: [phys*size+cell]
	addr   []int64   // [mem*stride+phys]
	data   []int64   // [mem*stride+phys]
	opn    []int64   // [mem*stride+phys]

	memSlot []int // slot of each memory, by ordinal
	memSize []int // cells per lane of each memory, by ordinal

	// Lane compaction: public lane indices are logical and stable; all
	// per-lane storage is indexed by physical slot. Compaction swaps
	// retired lanes' columns out of the live span so the kernels' lane
	// loops (and the bit path's word loops) stop visiting dead slots on
	// long-tail campaigns. phys and logOf are inverse permutations of
	// [0, lanes).
	phys  []int // logical lane -> physical slot
	logOf []int // physical slot -> logical lane

	// Bit-parallel state, nil/empty unless the evaluator elected planes.
	bit        BitGangStepper
	planeSlots []int    // slot of each plane, in plane order
	planes     []uint64 // [plane*pwords+word]; phys slot p's bit at word p>>6, bit p&63
	pwords     int      // words per plane: ceil(stride/64)
	detached   []bool   // by phys slot: faulted, vals column is authoritative

	lanes  int     // lanes configured by the last Reset
	active []int   // physical slots still stepping, ascending
	cycle  []int64 // per-phys-slot cycle counter
	target []int64 // per-phys-slot halt cycle
	stats  []Stats // per-phys-slot statistics
	err    []error // per-phys-slot fault, nil while healthy
}

// NewGang builds a gang of up to capacity lanes for a program's layout,
// or reports ok=false when the evaluator does not implement
// GangStepper. The gang starts with zero lanes; Reset configures them.
func NewGang(layout *Layout, eval Evaluator, capacity int) (*Gang, bool) {
	gs, ok := eval.(GangStepper)
	if !ok {
		return nil, false
	}
	if capacity < 1 {
		capacity = 1
	}
	nm := len(layout.Mems)
	g := &Gang{
		layout:  layout,
		eval:    gs,
		stride:  capacity,
		vals:    make([]int64, layout.Slots()*capacity),
		arrays:  make([][]int64, nm),
		addr:    make([]int64, nm*capacity),
		data:    make([]int64, nm*capacity),
		opn:     make([]int64, nm*capacity),
		memSlot: make([]int, nm),
		memSize: make([]int, nm),
		cycle:   make([]int64, capacity),
		target:  make([]int64, capacity),
		stats:   make([]Stats, capacity),
		err:     make([]error, capacity),
		phys:    make([]int, capacity),
		logOf:   make([]int, capacity),
	}
	for i, mem := range layout.Mems {
		g.arrays[i] = make([]int64, mem.Size*capacity)
		g.memSlot[i] = mem.Slot
		g.memSize[i] = mem.Size
	}
	for l := range g.stats {
		g.stats[l] = Stats{MemOps: make([]MemOpStats, nm)}
	}
	if bs, ok := eval.(BitGangStepper); ok {
		if slots := bs.BitPlaneSlots(); len(slots) > 0 {
			g.bit = bs
			g.planeSlots = slots
			g.pwords = (capacity + 63) >> 6
			g.planes = make([]uint64, len(slots)*g.pwords)
			g.detached = make([]bool, capacity)
		}
	}
	return g, true
}

// Capacity returns the maximum number of lanes the gang can hold.
func (g *Gang) Capacity() int { return g.stride }

// Lanes returns the number of lanes the last Reset configured.
func (g *Gang) Lanes() int { return g.lanes }

// BitParallel reports whether this gang steps through the evaluator's
// bit-parallel kernels (BitGangStepper with at least one plane).
func (g *Gang) BitParallel() bool { return g.bit != nil }

// LiveSpan returns the extent of physical slots the kernels currently
// visit: every active lane occupies a slot below it. Compaction shrinks
// it as lanes retire; exposed for tests and planner telemetry.
func (g *Gang) LiveSpan() int {
	if len(g.active) == 0 {
		return 0
	}
	return g.active[len(g.active)-1] + 1
}

// Reset configures len(targets) lanes at power-on state — the state
// Machine.Reset produces — with lane l set to halt upon reaching cycle
// targets[l]. Reset reuses all backing storage, so a pooled gang is
// reconfigured without allocation.
func (g *Gang) Reset(targets []int64) {
	if len(targets) > g.stride {
		panic(fmt.Sprintf("sim: gang Reset with %d lanes exceeds capacity %d", len(targets), g.stride))
	}
	g.lanes = len(targets)
	for i := range g.vals {
		g.vals[i] = 0
	}
	for i, mem := range g.layout.Mems {
		arr := g.arrays[i]
		for j := range arr {
			arr[j] = 0
		}
		size := g.memSize[i]
		for l := 0; l < g.lanes; l++ {
			copy(arr[l*size:(l+1)*size], mem.Init)
		}
	}
	for i := range g.addr {
		g.addr[i], g.data[i], g.opn[i] = 0, 0, 0
	}
	for l := 0; l < g.stride; l++ {
		g.cycle[l] = 0
		g.target[l] = 0
		g.err[l] = nil
		g.phys[l] = l
		g.logOf[l] = l
		ops := g.stats[l].MemOps
		for i := range ops {
			ops[i] = MemOpStats{}
		}
		g.stats[l] = Stats{MemOps: ops}
	}
	if g.bit != nil {
		for i := range g.planes {
			g.planes[i] = 0
		}
		// A lane whose budget is zero retires without ever evaluating,
		// but the word-ops still sweep its bits (they cover every slot
		// below the live span). Detach it up front so its power-on
		// column stays authoritative; every other lane evaluates on the
		// first step, which makes its plane bits exact.
		for l := range g.detached {
			g.detached[l] = l < len(targets) && targets[l] <= 0
		}
	}
	copy(g.target, targets)
	g.refreshActive()
}

// refreshActive rebuilds the active-lane list — physical slots that
// have neither faulted nor reached their target cycle — and compacts
// the gang when the live span has grown sparse.
func (g *Gang) refreshActive() {
	g.active = g.active[:0]
	for p := 0; p < g.lanes; p++ {
		if g.err[p] == nil && g.cycle[p] < g.target[p] {
			g.active = append(g.active, p)
		}
	}
	g.maybeCompact()
}

// compactMinSpan is the live span below which compaction is not worth
// the column swaps.
const compactMinSpan = 16

// maybeCompact swaps live lanes' state columns into the low physical
// slots when retired lanes make up at least half the live span, so
// both the lane loops' memory traffic and the bit path's word count
// shrink with the survivor population instead of staying pinned at the
// high-water mark. Public lane indices are logical and unaffected;
// results are byte-identical because a lane's whole column (values,
// memory rows, latches, counters, statistics, plane bits) moves as one.
func (g *Gang) maybeCompact() {
	n := len(g.active)
	if n == 0 {
		return
	}
	span := g.active[n-1] + 1
	if span < compactMinSpan || span < 2*n {
		return
	}
	d := 0 // next candidate dead slot below n
	for k := n - 1; k >= 0 && g.active[k] >= n; k-- {
		for g.err[d] == nil && g.cycle[d] < g.target[d] {
			d++
		}
		g.swapSlots(g.active[k], d)
		d++
	}
	// Exactly the n live lanes now occupy slots [0, n).
	g.active = g.active[:0]
	for p := 0; p < n; p++ {
		g.active = append(g.active, p)
	}
}

// swapSlots exchanges two physical slots' entire per-lane state and
// updates the logical<->physical maps.
func (g *Gang) swapSlots(a, b int) {
	for s := 0; s < g.layout.Slots(); s++ {
		base := s * g.stride
		g.vals[base+a], g.vals[base+b] = g.vals[base+b], g.vals[base+a]
	}
	for i, size := range g.memSize {
		arr := g.arrays[i]
		ra, rb := arr[a*size:(a+1)*size], arr[b*size:(b+1)*size]
		for j := range ra {
			ra[j], rb[j] = rb[j], ra[j]
		}
		mb := i * g.stride
		g.addr[mb+a], g.addr[mb+b] = g.addr[mb+b], g.addr[mb+a]
		g.data[mb+a], g.data[mb+b] = g.data[mb+b], g.data[mb+a]
		g.opn[mb+a], g.opn[mb+b] = g.opn[mb+b], g.opn[mb+a]
	}
	g.cycle[a], g.cycle[b] = g.cycle[b], g.cycle[a]
	g.target[a], g.target[b] = g.target[b], g.target[a]
	g.stats[a], g.stats[b] = g.stats[b], g.stats[a]
	g.err[a], g.err[b] = g.err[b], g.err[a]
	if g.bit != nil {
		wa, ba := a>>6, uint(a&63)
		wb, bb := b>>6, uint(b&63)
		for p := range g.planeSlots {
			pb := p * g.pwords
			va := (g.planes[pb+wa] >> ba) & 1
			vb := (g.planes[pb+wb] >> bb) & 1
			g.planes[pb+wa] = g.planes[pb+wa]&^(1<<ba) | vb<<ba
			g.planes[pb+wb] = g.planes[pb+wb]&^(1<<bb) | va<<bb
		}
		g.detached[a], g.detached[b] = g.detached[b], g.detached[a]
	}
	la, lb := g.logOf[a], g.logOf[b]
	g.logOf[a], g.logOf[b] = lb, la
	g.phys[la], g.phys[lb] = b, a
}

// Done reports whether every lane has halted or faulted.
func (g *Gang) Done() bool { return len(g.active) == 0 }

// Step advances every active lane by up to max cycles in lockstep and
// reports whether any lane remains active. Lanes retire individually:
// a lane that reaches its target cycle halts, a lane that hits a
// runtime error records it (LaneErr) and faults out with its state
// frozen exactly where a stand-alone machine's error would have left
// it; the other lanes are unaffected. Callers loop Step with a chunk
// size to interleave cancellation checks, as they would RunBatch.
func (g *Gang) Step(max int64) bool {
	for max > 0 && len(g.active) > 0 {
		max -= g.run(max)
	}
	return len(g.active) > 0
}

// run executes up to max gang cycles inside one recovery scope and
// returns the number of cycles fully committed. A per-lane evaluation
// fault (selector error) unwinds to here as a *GangFault: the lane
// retires with the scalar path's exact error and the interrupted
// cycle's evaluation re-runs for the survivors. Re-running is safe
// because evaluation only derives from pre-commit state, and the
// faulted lane keeps exactly the partial evaluation the scalar path
// would have aborted with.
func (g *Gang) run(max int64) (n int64) {
	defer func() {
		if r := recover(); r != nil {
			gf, ok := r.(*GangFault)
			if !ok {
				panic(r)
			}
			if gf.Lane < 0 || gf.Lane >= g.lanes || g.err[gf.Lane] != nil {
				panic(fmt.Sprintf("sim: gang kernel reported fault for bad lane %d", gf.Lane))
			}
			// On the bit path the faulted slot's plane bits hold exactly
			// the partial evaluation the scalar path would have aborted
			// with (components before the fault are this cycle's, the
			// rest last cycle's): materialize them into vals now and make
			// the vals column authoritative from here on — the surviving
			// lanes' re-run will keep rewriting the shared plane words.
			g.detachSlot(gf.Lane)
			g.err[gf.Lane] = gf.Err
			g.refreshActive()
		}
	}()
	for ; n < max && len(g.active) > 0; n++ {
		if g.bit != nil {
			span := g.active[len(g.active)-1] + 1
			words := (span + 63) >> 6
			g.bit.StepCycleGangBits(g.vals, g.planes, g.addr, g.data, g.opn, g.stride, g.pwords, words, g.active, g.cycle)
		} else {
			g.eval.StepCycleGang(g.vals, g.addr, g.data, g.opn, g.stride, g.active, g.cycle)
		}
		g.commitAdvance()
	}
	return n
}

// materializeSlot copies a physical slot's plane bits into its vals
// column, so the scalar-layout observers (hashing, snapshots, value
// reads) see the architectural values. A detached slot's vals column
// is already authoritative and must not be overwritten.
func (g *Gang) materializeSlot(p int) {
	if g.bit == nil || g.detached[p] {
		return
	}
	w, bit := p>>6, uint(p&63)
	for i, slot := range g.planeSlots {
		g.vals[slot*g.stride+p] = int64((g.planes[i*g.pwords+w] >> bit) & 1)
	}
}

// detachSlot materializes a physical slot and pins its vals column as
// authoritative — used when a slot's bits stop being recomputed in
// lockstep (lane fault) or stop matching the planes (lane restore).
func (g *Gang) detachSlot(p int) {
	if g.bit == nil {
		return
	}
	g.materializeSlot(p)
	g.detached[p] = true
}

// commitAdvance commits every active lane's latched memory operations
// and advances the lanes that completed the cycle. Commit is
// lane-major (lanes are independent, so the order across lanes is
// unobservable); within a lane it is memory-major like the scalar
// commitMems, and a lane that faults at memory i keeps its earlier
// memories' commits and skips the rest, exactly like the scalar
// path's panic unwind.
func (g *Gang) commitAdvance() {
	retired := false
	for _, l := range g.active {
		ops := g.stats[l].MemOps
	mems:
		for i, size := range g.memSize {
			a, d, op := g.addr[i*g.stride+l], g.data[i*g.stride+l], g.opn[i*g.stride+l]
			arr := g.arrays[i]
			base := l * size
			var temp int64
			switch op & 3 {
			case OpRead:
				if a < 0 || a >= int64(size) {
					g.failLane(l, g.layout.Mems[i].Name, "read address %d outside 0..%d", a, size-1)
					break mems
				}
				temp = arr[base+int(a)]
				ops[i].Reads++
			case OpWrite:
				if a < 0 || a >= int64(size) {
					g.failLane(l, g.layout.Mems[i].Name, "write address %d outside 0..%d", a, size-1)
					break mems
				}
				temp = d
				arr[base+int(a)] = d
				ops[i].Writes++
			case OpInput:
				// Gang lanes never have an input device, like a machine
				// built with zero Options.
				g.failLane(l, g.layout.Mems[i].Name, "input operation with no input attached")
				break mems
			case OpOutput:
				// Counted and discarded; zero-Options machines write to
				// io.Discard.
				temp = d
				ops[i].Outputs++
			}
			g.vals[g.memSlot[i]*g.stride+l] = temp
		}
		if g.err[l] != nil {
			retired = true
			continue
		}
		g.cycle[l]++
		g.stats[l].Cycles++
		if g.cycle[l] >= g.target[l] {
			retired = true
		}
	}
	if retired {
		g.refreshActive()
	}
}

// failLane records a commit-phase runtime error for one physical slot,
// shaped exactly like the scalar path's Fail. The cycle's evaluation
// completed before commit began, so on the bit path the slot's plane
// bits are exactly this cycle's combinational outputs — materialized
// here, before the lane's state freezes.
func (g *Gang) failLane(l int, component string, format string, args ...interface{}) {
	g.detachSlot(l)
	g.err[l] = &RuntimeError{Component: component, Cycle: g.cycle[l], Msg: fmt.Sprintf(format, args...)}
}

// slotOf maps a public (logical) lane index to its physical slot.
func (g *Gang) slotOf(l int) int {
	if l < 0 || l >= g.lanes {
		panic(fmt.Sprintf("sim: gang lane %d outside 0..%d", l, g.lanes-1))
	}
	return g.phys[l]
}

// LaneCycle returns the number of cycles lane l has executed.
func (g *Gang) LaneCycle(l int) int64 { return g.cycle[g.slotOf(l)] }

// LaneErr returns lane l's runtime error, or nil while it is healthy.
func (g *Gang) LaneErr(l int) error { return g.err[g.slotOf(l)] }

// LaneStats returns lane l's execution statistics. Like Machine.Stats,
// the returned value owns its MemOps slice.
func (g *Gang) LaneStats(l int) Stats {
	s := g.stats[g.slotOf(l)]
	s.MemOps = append([]MemOpStats(nil), s.MemOps...)
	return s
}

// LaneValue returns lane l's current output for a component, like
// Machine.Value.
func (g *Gang) LaneValue(l int, name string) int64 {
	p := g.slotOf(l)
	slot, ok := g.layout.Slot(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown component %q", name))
	}
	g.materializeSlot(p)
	return g.vals[slot*g.stride+p]
}

// LaneArchHash folds lane l's architectural state into the same hash
// Machine.ArchHash computes (shared fold, same slot/ordinal order): a
// gang lane and a machine in identical state hash identically.
func (g *Gang) LaneArchHash(l int) uint64 {
	p := g.slotOf(l)
	g.materializeSlot(p)
	h := archHashOffset
	for slot := 0; slot < g.layout.Slots(); slot++ {
		h = archHashWord(h, g.vals[slot*g.stride+p])
	}
	for i, arr := range g.arrays {
		size := g.memSize[i]
		for _, v := range arr[p*size : (p+1)*size] {
			h = archHashWord(h, v)
		}
	}
	return h
}

// laneStateLen mirrors Machine.stateLen for one lane.
func (g *Gang) laneStateLen() int {
	n := 8 + // magic
		8 + 8*g.layout.Slots() + // value vector
		8 // memory count
	for _, size := range g.memSize {
		n += 8 + 8*size
	}
	nm := len(g.arrays)
	n += 3 * 8 * nm // addr/data/opn latches
	n += 8 + 8      // cycle + stats.Cycles
	n += 4 * 8 * nm // per-memory operation counters
	return n
}

// AppendLaneState appends lane l's state snapshot to buf in exactly
// the format Machine.AppendState produces: a lane's snapshot restores
// onto any machine of the same specification and vice versa, which is
// what lets gang lanes interoperate with the scalar warm-start and
// state-transfer machinery.
func (g *Gang) AppendLaneState(l int, buf []byte) []byte {
	p := g.slotOf(l)
	g.materializeSlot(p)
	put := func(v int64) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	put(int64(stateMagic))
	put(int64(g.layout.Slots()))
	for slot := 0; slot < g.layout.Slots(); slot++ {
		put(g.vals[slot*g.stride+p])
	}
	put(int64(len(g.arrays)))
	for i, arr := range g.arrays {
		size := g.memSize[i]
		put(int64(size))
		for _, v := range arr[p*size : (p+1)*size] {
			put(v)
		}
	}
	nm := len(g.arrays)
	for i := 0; i < nm; i++ {
		put(g.addr[i*g.stride+p])
	}
	for i := 0; i < nm; i++ {
		put(g.data[i*g.stride+p])
	}
	for i := 0; i < nm; i++ {
		put(g.opn[i*g.stride+p])
	}
	put(g.cycle[p])
	put(g.stats[p].Cycles)
	for _, ops := range g.stats[p].MemOps {
		put(ops.Reads)
		put(ops.Writes)
		put(ops.Inputs)
		put(ops.Outputs)
	}
	return buf
}

// SaveLaneState returns a binary snapshot of lane l, byte-identical to
// what a Machine in the same state would save.
func (g *Gang) SaveLaneState(l int) []byte {
	return g.AppendLaneState(l, make([]byte, 0, g.laneStateLen()))
}

// RestoreLaneState loads a Machine/Gang snapshot into lane l. The
// snapshot must come from the same specification; a mismatched or
// corrupt snapshot is rejected before any lane state is modified. A
// restored lane is healthy again (its fault, if any, is cleared) and
// resumes stepping until it reaches its target cycle.
func (g *Gang) RestoreLaneState(l int, st []byte) error {
	p := g.slotOf(l)
	if len(st) != g.laneStateLen() {
		return fmt.Errorf("sim: snapshot is %d bytes, this gang's lane state is %d", len(st), g.laneStateLen())
	}
	get := func(off int) int64 {
		return int64(binary.LittleEndian.Uint64(st[off:]))
	}
	// Validate the full layout before touching any state.
	if uint64(get(0)) != stateMagic {
		return fmt.Errorf("sim: not a machine state snapshot (bad magic %#x)", uint64(get(0)))
	}
	nslots := g.layout.Slots()
	if n := get(8); n != int64(nslots) {
		return fmt.Errorf("sim: snapshot has %d component slots, this gang has %d", n, nslots)
	}
	off := 16 + 8*nslots
	if n := get(off); n != int64(len(g.arrays)) {
		return fmt.Errorf("sim: snapshot has %d memories, this gang has %d", n, len(g.arrays))
	}
	off += 8
	arrOff := make([]int, len(g.arrays))
	for i, size := range g.memSize {
		if n := get(off); n != int64(size) {
			return fmt.Errorf("sim: snapshot memory %d has %d cells, this gang has %d", i, n, size)
		}
		arrOff[i] = off + 8
		off += 8 + 8*size
	}

	// Shape verified; scatter everything in.
	for slot := 0; slot < nslots; slot++ {
		g.vals[slot*g.stride+p] = get(16 + 8*slot)
	}
	for i, arr := range g.arrays {
		size := g.memSize[i]
		base := arrOff[i]
		lane := arr[p*size : (p+1)*size]
		for j := range lane {
			lane[j] = get(base + 8*j)
		}
	}
	nm := len(g.arrays)
	for i := 0; i < nm; i++ {
		g.addr[i*g.stride+p] = get(off + 8*i)
		g.data[i*g.stride+p] = get(off + 8*(nm+i))
		g.opn[i*g.stride+p] = get(off + 8*(2*nm+i))
	}
	off += 3 * 8 * nm
	g.cycle[p] = get(off)
	g.stats[p].Cycles = get(off + 8)
	off += 16
	for i := range g.stats[p].MemOps {
		g.stats[p].MemOps[i] = MemOpStats{
			Reads:   get(off),
			Writes:  get(off + 8),
			Inputs:  get(off + 16),
			Outputs: get(off + 24),
		}
		off += 32
	}
	// Repack the restored vals into the slot's plane bits, so the bit
	// path's planes are authoritative again from the first step — and a
	// fault during that step materializes back to exactly the scalar
	// path's partial state.
	if g.bit != nil {
		w, bit := p>>6, uint(p&63)
		for i, slot := range g.planeSlots {
			pw := i*g.pwords + w
			if g.vals[slot*g.stride+p] != 0 {
				g.planes[pw] |= 1 << bit
			} else {
				g.planes[pw] &^= 1 << bit
			}
		}
		g.detached[p] = false
	}
	g.err[p] = nil
	g.refreshActive()
	return nil
}
