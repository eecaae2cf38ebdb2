package sim

import "fmt"

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
// Divergence is handled by keeping the live lanes dense: a lane leaves
// the gang when it reaches its target cycle (halts) or hits a runtime
// error (faults out), and its state column trades places with the last
// live lane's, so the n live lanes always occupy physical slots [0, n)
// and every kernel is one branch-free loop over that prefix. A lane
// retires once, so keeping the prefix costs at most one column swap per
// lane per run. Because a cycle's evaluation phase is idempotent —
// combinational outputs and input latches are pure functions of the
// pre-commit state — a lane fault during evaluation simply retires the
// lane and re-runs the cycle's evaluation for the survivors; memory
// commit, which does mutate state, handles lane faults in place without
// re-running.

// GangStepper is an optional Evaluator capability: a backend that can
// evaluate one cycle for a whole gang of lanes in component-major
// order — for each combinational component (in dependency order) and
// each memory latch, one loop over the live lanes — against the
// struct-of-arrays layout a Gang maintains.
//
// Layout: vals[slot*stride+lane] is lane's output for slot;
// addr/data/opn[mem*stride+lane] are lane's latched memory inputs for
// memory ordinal mem. The lanes to evaluate are exactly [0, n), and
// cycles[lane] is each lane's current cycle (for runtime-error
// reporting; live lanes need not agree on it). Kernels must not write
// any lane at or above n.
//
// For every lane below n the result must be bit-identical to
// StepCycle on a Machine in the same state. A per-lane
// runtime error is reported by panicking with *GangFault (use
// FailLane); the gang recovers it, faults the lane out and re-runs the
// evaluation for the remaining lanes, so kernels must not cache state
// across calls.
type GangStepper interface {
	Evaluator

	StepCycleGang(vals []int64, addr, data, opn []int64, stride, n int, cycles []int64)
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
// lives at word l>>6, bit l&63. The kernels process the ceil(n/64)
// words that cover the live lanes [0, n). Bits at slots n and above
// inside the last of those words belong to retired lanes: the word-ops
// may recompute them, and a halted lane's are a fixed point of that
// recomputation, but no kernel may otherwise change them. After the
// call, for every lane below n the plane bits and the vals vector
// together are bit-identical to StepCycleGang's vals: a plane slot's
// architectural value is its lane bit (0 or 1), and the gang
// materializes bits back into vals whenever lane state is observed.
type BitGangStepper interface {
	GangStepper

	BitPlaneSlots() []int
	StepCycleGangBits(vals []int64, planes []uint64, addr, data, opn []int64, stride, pwords, n int, cycles []int64)
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
// correspond one-to-one to machines built with zero Options and no
// observers (an input operation faults the lane, exactly as it faults a
// machine with no input attached; output operations are counted and
// discarded), each with its own fault records (SetLaneFaults).
type Gang struct {
	state // one column per physical slot; stride is the lane capacity
	eval  GangStepper

	memSlot []int // slot of each memory, by ordinal
	memSize []int // cells per lane of each memory, by ordinal

	// Lane compaction: public lane indices are logical and stable; all
	// per-lane storage is indexed by physical slot. Compaction swaps
	// retired lanes' columns out of the live prefix [0, n) so the
	// kernels' lane loops (and the bit path's word loops) never visit a
	// dead slot. phys and logOf are inverse permutations of [0, lanes).
	phys  []int // logical lane -> physical slot
	logOf []int // physical slot -> logical lane

	// Bit-parallel state, nil/empty unless the evaluator elected planes.
	// bits is the evaluator's kernels; bit is bits while this job may
	// step them, nil once a fault record rules them out (SetLaneFaults).
	bits, bit  BitGangStepper
	planeSlots []int    // slot of each plane, in plane order
	planes     []uint64 // [plane*pwords+word]; phys slot p's bit at word p>>6, bit p&63
	pwords     int      // words per plane: ceil(stride/64)
	detached   []bool   // by phys slot: vals column is authoritative (faulted, or never steps)

	// Fault records and their counts by logical lane (SetLaneFaults);
	// nil when no lane of this job has any.
	faults [][]Fault
	hits   [][]int64

	lanes  int     // lanes configured by the last Reset
	n      int     // live lanes, which occupy physical slots [0, n)
	cycle  []int64 // per-phys-slot cycle counter
	target []int64 // per-phys-slot halt cycle
	stats  []Stats // per-phys-slot Cycles; memory operation counts are in state.ops
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
		state:   newState(layout, capacity),
		eval:    gs,
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
		g.memSlot[i] = mem.Slot
		g.memSize[i] = mem.Size
	}
	if bs, ok := eval.(BitGangStepper); ok {
		if slots := bs.BitPlaneSlots(); len(slots) > 0 {
			g.bits, g.bit = bs, bs
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
// bit-parallel kernels (BitGangStepper with at least one plane) in its
// current job.
func (g *Gang) BitParallel() bool { return g.bit != nil }

// LiveSpan returns the number of physical slots the kernels currently
// visit, which is the number of live lanes: they occupy slots [0, n).
// It shrinks as lanes retire; exposed for tests.
func (g *Gang) LiveSpan() int { return g.n }

// Reset configures len(targets) lanes at power-on state — the state
// Machine.Reset produces, fault records cleared — with lane l set to
// halt upon reaching cycle targets[l]. Reset reuses all backing
// storage, so a pooled gang is reconfigured without allocation.
func (g *Gang) Reset(targets []int64) {
	if len(targets) > g.stride {
		panic(fmt.Sprintf("sim: gang Reset with %d lanes exceeds capacity %d", len(targets), g.stride))
	}
	g.lanes, g.bit, g.faults = len(targets), g.bits, nil
	for p := 0; p < g.stride; p++ {
		g.column(p).reset()
		g.target[p] = 0
		g.err[p] = nil
		g.phys[p] = p
		g.logOf[p] = p
	}
	if g.bit != nil {
		for i := range g.planes {
			g.planes[i] = 0
		}
		// A lane whose budget is zero retires without ever evaluating,
		// but the word-ops still sweep its bits when it lands in the
		// last live word. Detach it up front so its power-on column
		// stays authoritative; every other lane evaluates on the first
		// step, which makes its plane bits exact.
		for l := range g.detached {
			g.detached[l] = l < len(targets) && targets[l] <= 0
		}
	}
	copy(g.target, targets)
	g.n = g.lanes
	g.compact()
}

// live reports whether physical slot p has neither faulted nor reached
// its target cycle.
func (g *Gang) live(p int) bool { return g.err[p] == nil && g.cycle[p] < g.target[p] }

// compact restores the dense prefix after lanes retire: retired slots
// at the end of [0, n) drop off it, and each retired slot below a live
// one trades places with the last live slot, so the live lanes occupy
// exactly [0, n) and a retirement costs at most one column swap.
// Public lane indices are logical and unaffected; results are
// byte-identical because a lane's whole column (values, memory rows,
// latches, counters, statistics, plane bits) moves as one.
func (g *Gang) compact() {
	for p := 0; p < g.n; {
		switch {
		case g.live(p):
			p++
		case !g.live(g.n - 1):
			g.n--
		default:
			g.n--
			g.swapSlots(p, g.n)
		}
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
		g.ops[mb+a], g.ops[mb+b] = g.ops[mb+b], g.ops[mb+a]
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
func (g *Gang) Done() bool { return g.n == 0 }

// Step advances every live lane by up to max cycles in lockstep and
// reports whether any lane remains live. Lanes retire individually:
// a lane that reaches its target cycle halts, a lane that hits a
// runtime error records it (LaneErr) and faults out with its state
// frozen exactly where a stand-alone machine's error would have left
// it; the other lanes are unaffected. Callers loop Step with a chunk
// size to interleave cancellation checks, as they would Machine.Run.
func (g *Gang) Step(max int64) bool {
	for max > 0 && g.n > 0 {
		max -= g.run(max)
	}
	return g.n > 0
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
			if gf.Lane < 0 || gf.Lane >= g.n {
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
			g.compact()
		}
	}()
	for ; n < max && g.n > 0; n++ {
		if g.bit != nil {
			g.bit.StepCycleGangBits(g.vals, g.planes, g.addr, g.data, g.opn, g.stride, g.pwords, g.n, g.cycle)
		} else {
			g.eval.StepCycleGang(g.vals, g.addr, g.data, g.opn, g.stride, g.n, g.cycle)
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

// commitAdvance commits every live lane's latched memory operations
// and advances the lanes that completed the cycle. Commit is
// memory-major, one dense loop over [0, n) per memory (lanes are
// independent, so the order across lanes is unobservable); within a
// lane the memories commit in ordinal order like the scalar commitMems,
// and a lane that faults at memory i keeps its earlier memories'
// commits and skips the rest, exactly like the scalar path's panic
// unwind.
func (g *Gang) commitAdvance() {
	n, errs := g.n, g.err[:g.n]
	faulted := false // some lane faulted in this commit: check errs per lane
	for i, size := range g.memSize {
		mb := i * g.stride
		addr, data, opn, counts := g.addr[mb:][:n], g.data[mb:][:n], g.opn[mb:][:n], g.ops[mb:][:n]
		out := g.vals[g.memSlot[i]*g.stride:][:n]
		arr := g.arrays[i]
		for p, op := range opn {
			if faulted && errs[p] != nil {
				continue
			}
			a, op := addr[p], op&3
			if op == OpInput || op <= OpWrite && uint64(a) >= uint64(size) {
				g.commitFault(p, i, op, a)
				faulted = true
				continue
			}
			switch ops := &counts[p]; op {
			case OpRead:
				out[p] = arr[p*size+int(a)]
				ops.Reads++
			case OpWrite:
				arr[p*size+int(a)] = data[p]
				out[p] = data[p]
				ops.Writes++
			default:
				// Counted and discarded; zero-Options machines write to
				// io.Discard.
				out[p] = data[p]
				ops.Outputs++
			}
		}
	}
	retired := faulted
	for p := 0; p < n; p++ {
		if faulted && errs[p] != nil {
			continue
		}
		g.cycle[p]++
		g.stats[p].Cycles++
		if g.faults != nil {
			g.column(p).inject(g.faults[g.logOf[p]], g.hits[g.logOf[p]])
		}
		if g.cycle[p] >= g.target[p] {
			retired = true
		}
	}
	if retired {
		g.compact()
	}
}

// commitFault records the commit-phase runtime error of physical slot
// l's operation op at address a of memory mem, shaped exactly like the
// scalar path's Fail. The cycle's evaluation completed before commit
// began, so on the bit path the slot's plane bits are exactly this
// cycle's combinational outputs — materialized here, before the lane's
// state freezes.
func (g *Gang) commitFault(l, mem int, op, a int64) {
	var msg string
	switch last := g.memSize[mem] - 1; op {
	case OpRead:
		msg = fmt.Sprintf("read address %d outside 0..%d", a, last)
	case OpWrite:
		msg = fmt.Sprintf("write address %d outside 0..%d", a, last)
	default:
		// Gang lanes never have an input device, like a machine built
		// with zero Options.
		msg = "input operation with no input attached"
	}
	g.detachSlot(l)
	g.err[l] = &RuntimeError{Component: g.layout.Mems[mem].Name, Cycle: g.cycle[l], Msg: msg}
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

// SetLaneFaults gives lane l fault records and their counts, as
// Machine.SetFaults gives a machine's, until the next Reset. The
// bit-parallel kernels assume a register classified 0/1 stays 0/1, so a
// record that can move 0 or 1 outside {0, 1} turns them off for the
// rest of the job: every lane is materialized and the gang steps its
// lane-loop kernels.
func (g *Gang) SetLaneFaults(l int, recs []Fault, hits []int64) {
	if g.faults == nil {
		g.faults, g.hits = make([][]Fault, g.stride), make([][]int64, g.stride)
	}
	g.faults[l], g.hits[l] = recs, hits
	for _, f := range recs {
		if g.bit != nil && uint64(f.apply(0)|f.apply(1)) > 1 {
			for p := range g.stride {
				g.materializeSlot(p)
			}
			g.bit = nil
		}
	}
}

// AppendLaneStats returns lane l's execution statistics, copying its
// MemOps onto the end of ops: the returned statistics' MemOps are the
// appended entries, and the extended ops is returned too. Like
// Machine.Stats, the result shares nothing with the gang. A caller
// collecting every lane of a gang sizes ops once (Lanes × MemCount) and
// the lanes share that one block; AppendLaneStats(l, nil) gives a lane
// a block of its own.
func (g *Gang) AppendLaneStats(l int, ops []MemOpStats) (Stats, []MemOpStats) {
	p := g.slotOf(l)
	at := len(ops)
	for k := p; k < len(g.ops); k += g.stride {
		ops = append(ops, g.ops[k])
	}
	return Stats{Cycles: g.stats[p].Cycles, MemOps: ops[at:len(ops):len(ops)]}, ops
}

// MemCount returns the number of memories each lane's statistics
// count operations for.
func (g *Gang) MemCount() int { return len(g.memSlot) }

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

// column is physical slot p's state.
func (g *Gang) column(p int) column { return column{&g.state, p, &g.cycle[p], &g.stats[p]} }

// LaneArchHash folds lane l's architectural state into the same hash
// Machine.ArchHash computes: a gang lane and a machine in identical
// state hash identically.
func (g *Gang) LaneArchHash(l int) uint64 {
	p := g.slotOf(l)
	g.materializeSlot(p)
	return g.column(p).archHash()
}

// AppendLaneState appends lane l's state snapshot to buf in exactly
// the format Machine.AppendState produces: a lane's snapshot restores
// onto any machine of the same specification and vice versa, which is
// what lets gang lanes interoperate with the scalar warm-start and
// state-transfer machinery.
func (g *Gang) AppendLaneState(l int, buf []byte) []byte {
	p := g.slotOf(l)
	g.materializeSlot(p)
	return g.column(p).appendState(buf)
}

// SaveLaneState returns a binary snapshot of lane l, byte-identical to
// what a Machine in the same state would save.
func (g *Gang) SaveLaneState(l int) []byte { return g.AppendLaneState(l, nil) }

// RestoreLaneState loads a Machine/Gang snapshot into lane l. The
// snapshot must come from the same specification; a mismatched or
// corrupt snapshot is rejected before any lane state is modified. A
// restored lane is healthy again (its fault, if any, is cleared) and
// resumes stepping until it reaches its target cycle.
func (g *Gang) RestoreLaneState(l int, st []byte) error {
	p := g.slotOf(l)
	if err := g.column(p).restoreState(st); err != nil {
		return err
	}
	g.err[p] = nil
	// Repack the restored vals into the slot's plane bits, so the bit
	// path's planes are authoritative again from the first step — and a
	// fault during that step materializes back to exactly the scalar
	// path's partial state. A lane restored at or past its target never
	// steps, and the word-ops would rewrite its bits from a state that
	// is not their fixed point, so like a zero-budget lane it stays
	// detached.
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
		g.detached[p] = !g.live(p)
	}
	// A retired lane restored to a live state rejoins the prefix; a live
	// lane restored at or past its target leaves it.
	if p >= g.n && g.live(p) {
		g.swapSlots(p, g.n)
		g.n++
	}
	g.compact()
	return nil
}
