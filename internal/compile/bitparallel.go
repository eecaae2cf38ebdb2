package compile

// Bit-parallel gang kernels (sim.BitGangStepper): logic over 1-bit
// signals evaluated 64 lanes per machine word.
//
// The gang kernels (gang.go) removed the per-lane component dispatch
// but still execute one lane-loop iteration per machine. For the large
// fraction of a control-heavy machine that is single-bit logic —
// enables, flags, mux selects, parity chains — the iteration itself is
// waste: a 0/1 signal needs one bit, and 64 lanes of it fit in one
// uint64. This file classifies which components provably stay in
// {0, 1} for every reachable input, assigns those a bit plane
// (planes[ordinal*pwords + lane>>6], lane's bit at lane&63), and
// compiles the eligible logic to one word-op per 64 lanes:
//
//   - AND/MUL over 0/1 values is `&` (Land truncates to 32 bits, a
//     no-op on 0/1); OR is `|` and XOR is `^` because the arithmetic
//     encodings l+r-Land(l,r)[*2] coincide with them on 0/1;
//   - EQ is ^(l^r) and LT is ^l&r, again exact on 0/1;
//   - a two-case selector whose select is 0/1 is the branch-free mux
//     c0&^s | c1&s — the select can never fault, so no lane loop;
//   - LEFT/RIGHT/constant-select copies are word copies, and ZERO /
//     UNUSED / out-of-range constant functions clear the plane.
//
// Components that are 0/1 but not word-computable (a bit extract from
// a multi-bit source, an AND with one wide operand) keep their
// existing lane-loop kernel and append a pack loop that mirrors the
// fresh column into the plane. Planes read by remaining lane-loop
// code (wide components, memory latches) append a scatter loop that
// mirrors the plane back into the column. Packs and scatters are the
// overhead that pays for the word-ops, so the whole path is enabled
// only when words saved exceed mirrors added (see buildBit's gate);
// otherwise BitPlaneSlots returns nil and gangs take the plain path.
//
// Memory slots are never plane-resident: commit writes lane columns,
// and snapshots read them. sim.Gang keeps its n live lanes in slots
// [0, n), so the lane loops, packs and scatters run over exactly those
// lanes and the word-ops over the ceil(n/64) words that cover them. The
// last word also holds retired lanes (slots n and above), which the
// word-ops recompute every cycle. A halted lane's bits are a fixed
// point of that: its pack bits are frozen (a pack keeps every bit at or
// above n in the word it rebuilds) and the word-ops read only planes,
// never memories, so they recompute exactly the bits its last cycle
// left. Faulted lanes' bits are garbage the gang never reads (sim.Gang
// materializes a lane's plane bits into its column before detaching it
// or serving state).

import (
	"repro/internal/lower"
	"repro/internal/sim"
)

// bitFn evaluates one combinational component for a bit-parallel gang's
// live lanes [0, n): either a word-op over the ceil(n/64) plane words
// that cover them, or a lane-loop over vals with a pack/scatter mirror.
type bitFn func(vals []int64, planes []uint64, stride, pwords, n int, cycles []int64)

// BitPlaneSlots implements sim.BitGangStepper. A nil result means the
// program gains nothing from bit-packing and gangs should take the
// plain lane-loop path.
func (c *Compiled) BitPlaneSlots() []int {
	c.bitOnce.Do(c.buildBit)
	return c.bitSlots
}

// StepCycleGangBits implements sim.BitGangStepper: one cycle of
// component-major evaluation with 0/1 logic running 64 lanes per word,
// bit-identical per lane to StepCycle on a machine in the same state.
// The latch kernels are the gang path's own, unchanged.
func (c *Compiled) StepCycleGangBits(vals []int64, planes []uint64, addr, data, opn []int64, stride, pwords, n int, cycles []int64) {
	c.bitOnce.Do(c.buildBit)
	for _, fn := range c.bitComb {
		fn(vals, planes, stride, pwords, n, cycles)
	}
	for _, fn := range c.gangLatches {
		fn(vals, addr, data, opn, stride, n)
	}
}

// bitFacts is what classification knows about each slot while buildBit
// plans the word-ops: whether the signal is 0/1, whether it is a memory
// output register, and (once assigned) its plane ordinal or -1.
type bitFacts struct {
	is01    []bool
	isMem   []bool
	planeOf []int
}

// buildBit classifies the lowered program and compiles the bit-parallel
// kernel list, once, on first bit-gang probe. It leaves bitSlots nil —
// no bit path — when disabled by options or when the word-ops would not
// pay for their pack/scatter mirrors.
func (c *Compiled) buildBit() {
	if c.opts.NoFold || c.opts.NoBitParallel {
		return
	}
	c.gangOnce.Do(c.buildGang)
	p := &c.prog
	f := bitFacts{is01: classify01(p), isMem: make([]bool, p.Slots), planeOf: make([]int, p.Slots)}
	for i := range p.Latches {
		f.isMem[p.Latches[i].Slot] = true
	}

	// Pass 1: which ops compile to word-ops. An op qualifies when its
	// output is 0/1 and every operand its word-op reads is a plane
	// (whole/low-bit reference to a 0/1 combinational signal) or a
	// broadcastable constant.
	wordable := make([]bool, len(p.Ops))
	srcsOf := make([][]int, len(p.Ops))
	for i := range p.Ops {
		o := &p.Ops[i]
		switch {
		case !f.is01[o.Out]:
		case o.Sel:
			// Only the 2-case 0/1 mux is branch- and fault-free as a
			// word-op. (A 1-case selector faults when the 0/1 select
			// reads 1; a constant out-of-range select faults every
			// cycle and stays on its lane-loop kernel.)
			if len(o.Cases) == 2 && f.expr01(o.Ctl) {
				srcsOf[i], wordable[i] = f.wordSrcs(o.Ctl, o.Cases[0], o.Cases[1])
			}
		case o.Folded:
			switch o.Fn {
			case sim.FnNot, sim.FnAdd, sim.FnSub, sim.FnShl:
				// Not 0/1-preserving (op01 agrees) — unreachable here,
				// but keep the word-op set explicit.
			case sim.FnLeft:
				srcsOf[i], wordable[i] = f.wordSrcs(o.Left)
			case sim.FnRight:
				srcsOf[i], wordable[i] = f.wordSrcs(o.Right)
			case sim.FnAnd, sim.FnMul, sim.FnOr, sim.FnXor, sim.FnEq, sim.FnLt:
				srcsOf[i], wordable[i] = f.wordSrcs(o.Left, o.Right)
			default:
				// Zero, unused and out-of-range constants evaluate to 0.
				wordable[i] = true
			}
		}
	}

	// Pass 2: the plane set — word-op outputs plus their plane sources,
	// ordinals assigned in first-encounter dependency order.
	for i := range f.planeOf {
		f.planeOf[i] = -1
	}
	var slots []int
	addPlane := func(slot int) {
		if f.planeOf[slot] < 0 {
			f.planeOf[slot] = len(slots)
			slots = append(slots, slot)
		}
	}
	wordOut := make([]bool, p.Slots)
	for i := range p.Ops {
		if wordable[i] {
			wordOut[p.Ops[i].Out] = true
			addPlane(p.Ops[i].Out)
			for _, s := range srcsOf[i] {
				addPlane(s)
			}
		}
	}
	if len(slots) == 0 {
		return
	}

	// Pass 3: which planes the remaining lane-loop code reads — those
	// must scatter back into their columns after the word-op. (A pack
	// slot's column is already fresh — its lane-loop kernel wrote it —
	// so only word-op outputs ever need the mirror.) A dead data latch
	// is a constant by now and marks nothing.
	scatter := make([]bool, p.Slots)
	markRefs := func(e lower.Expr) {
		for i := range e {
			if t := &e[i]; !t.Const && wordOut[t.Slot] {
				scatter[t.Slot] = true
			}
		}
	}
	for i := range p.Ops {
		if o := &p.Ops[i]; !wordable[i] {
			markRefs(o.Ctl)
			markRefs(o.Left)
			markRefs(o.Right)
			for _, e := range o.Cases {
				markRefs(e)
			}
		}
	}
	for i := range p.Latches {
		markRefs(p.Latches[i].Addr)
		markRefs(p.Latches[i].Data)
		markRefs(p.Latches[i].Opn)
	}

	// The profitability gate: every word-op saves a lane loop, every
	// pack or scatter adds one back. Require a strict net win so a
	// mostly-wide program (sieve) keeps its measured plain-gang speed.
	nWord, nPack, nScatter := 0, 0, 0
	for i := range p.Ops {
		switch {
		case wordable[i]:
			nWord++
		case f.planeOf[p.Ops[i].Out] >= 0:
			nPack++
		}
	}
	for _, sc := range scatter {
		if sc {
			nScatter++
		}
	}
	if nWord-nPack-nScatter < 1 {
		return
	}

	// Pass 4: the kernel list. Word-ops write planes (scattering to the
	// column when lane-loop code reads it); 0/1-but-wideworld components
	// run their gang kernel then pack; everything else is the gang
	// kernel unchanged.
	comb := make([]bitFn, len(p.Ops))
	for i := range p.Ops {
		slot, gf := p.Ops[i].Out, c.gangComb[i]
		switch {
		case wordable[i]:
			comb[i] = f.wordFn(&p.Ops[i])
			if scatter[slot] {
				comb[i] = withScatter(comb[i], slot, f.planeOf[slot])
			}
		case f.planeOf[slot] >= 0:
			comb[i] = withPack(gf, slot, f.planeOf[slot])
		default:
			comb[i] = liftGang(gf)
		}
	}
	c.bitComb, c.bitSlots = comb, slots
}

// classify01 computes, per slot, whether the signal provably stays in
// {0, 1} for every reachable machine state. Ops classify in one
// dependency-order pass given an assumption about each memory; memories
// start optimistic (all initial cells 0/1) and demote when their
// written data is not provably 0/1, iterating to a fixed point. (A
// memory that is never written has a constant-0 data latch, so its 0/1
// initial image persists.) Conservative everywhere: false never breaks
// correctness, it only forfeits a word-op.
func classify01(p *lower.Program) []bool {
	f := bitFacts{is01: make([]bool, p.Slots)}
	memOK := make([]bool, len(p.Latches))
	for i := range p.Latches {
		memOK[i] = true
		for _, v := range p.Latches[i].Init {
			if v != 0 && v != 1 {
				memOK[i] = false
				break
			}
		}
	}
	for {
		for i := range p.Latches {
			f.is01[p.Latches[i].Slot] = memOK[i]
		}
		for i := range p.Ops {
			f.is01[p.Ops[i].Out] = f.op01(&p.Ops[i])
		}
		changed := false
		for i := range p.Latches {
			if memOK[i] && !f.expr01(p.Latches[i].Data) {
				memOK[i] = false
				changed = true
			}
		}
		if !changed {
			return f.is01
		}
	}
}

// op01 reports whether an op's output provably stays in {0, 1}.
func (f *bitFacts) op01(o *lower.Op) bool {
	if o.Sel {
		reach := o.Cases
		if f.expr01(o.Ctl) && len(reach) > 2 {
			reach = reach[:2] // a 0/1 select only reaches the first two
		}
		for _, e := range reach {
			if !f.expr01(e) {
				return false
			}
		}
		return true
	}
	if !o.Folded {
		return false
	}
	l, r := f.expr01(o.Left), f.expr01(o.Right)
	switch o.Fn {
	case sim.FnLeft:
		return l
	case sim.FnRight:
		return r
	case sim.FnAnd:
		// Land truncates to 32 bits first, so one 0/1 operand bounds
		// AND; MUL has no truncation and needs both.
		return l || r
	case sim.FnMul, sim.FnOr, sim.FnXor:
		return l && r
	case sim.FnNot, sim.FnAdd, sim.FnSub, sim.FnShl:
		// NOT is Mask-l; ADD/SUB escape the range; SHL of 0/1 by 1 is
		// 2. None preserve {0,1}.
		return false
	default:
		return true // EQ and LT compare; zero, unused and out-of-range yield 0
	}
}

// expr01 reports whether an expression provably evaluates to 0 or 1.
func (f *bitFacts) expr01(e lower.Expr) bool {
	if !e.Simple() {
		return false // concatenations shift left; assume wide
	}
	switch t := &e[0]; {
	case t.Const:
		return t.Val == 0 || t.Val == 1
	case t.Field && t.Mask>>t.From <= 1:
		return true // a single extracted bit is 0/1 by construction
	default:
		return f.is01[t.Slot]
	}
}

// wordSrc is one word-op operand: a plane ordinal, or a broadcast
// constant word when plane is negative.
type wordSrc struct {
	plane int
	cval  uint64
}

func (s wordSrc) at(planes []uint64, pwords, w int) uint64 {
	if s.plane < 0 {
		return s.cval
	}
	return planes[s.plane*pwords+w]
}

// wordSrcSlot resolves an expression to a word-op source: the slot of
// a plane-eligible 0/1 combinational signal (slot >= 0), a broadcast
// constant (slot -1 with the word), or not word-representable at all
// (ok false). Memory slots are columns, never planes, so a reference
// to one disqualifies the component rather than packing the memory.
func (f *bitFacts) wordSrcSlot(e lower.Expr) (slot int, cw uint64, ok bool) {
	if !e.Simple() {
		return -1, 0, false
	}
	t := &e[0]
	switch {
	case t.Const:
		if t.Val == 1 {
			return -1, ^uint64(0), true
		}
		return -1, 0, t.Val == 0
	case f.isMem[t.Slot] || !f.is01[t.Slot]:
		return -1, 0, false
	case t.Field && t.From != 0:
		return -1, 0, true // any higher bit of a 0/1 value is 0
	default:
		return t.Slot, 0, true // the value, or its low bit/range, which is the value
	}
}

// wordSrcs resolves the operands a word-op would read, returning the
// plane-source slots and whether every operand is word-representable.
func (f *bitFacts) wordSrcs(exprs ...lower.Expr) ([]int, bool) {
	var srcs []int
	for _, e := range exprs {
		slot, _, ok := f.wordSrcSlot(e)
		if !ok {
			return nil, false
		}
		if slot >= 0 {
			srcs = append(srcs, slot)
		}
	}
	return srcs, true
}

// wordSrcFor is wordSrcSlot lowered to the runtime descriptor, once
// plane ordinals exist. Only meaningful for expressions wordSrcs
// accepted.
func (f *bitFacts) wordSrcFor(e lower.Expr) wordSrc {
	slot, cw, _ := f.wordSrcSlot(e)
	if slot < 0 {
		return wordSrc{plane: -1, cval: cw}
	}
	return wordSrc{plane: f.planeOf[slot]}
}

// wordFn compiles one word-op. Callers guarantee the op passed pass 1,
// so every case here is total.
func (f *bitFacts) wordFn(o *lower.Op) bitFn {
	po := f.planeOf[o.Out]
	if o.Sel {
		ss, c0, c1 := f.wordSrcFor(o.Ctl), f.wordSrcFor(o.Cases[0]), f.wordSrcFor(o.Cases[1])
		return func(_ []int64, planes []uint64, _, pwords, n int, _ []int64) {
			ob := po * pwords
			for w := 0; w<<6 < n; w++ {
				s := ss.at(planes, pwords, w)
				planes[ob+w] = c0.at(planes, pwords, w)&^s | c1.at(planes, pwords, w)&s
			}
		}
	}
	ls, rs := f.wordSrcFor(o.Left), f.wordSrcFor(o.Right)
	switch o.Fn {
	case sim.FnLeft:
		return wordCopy(po, ls)
	case sim.FnRight:
		return wordCopy(po, rs)
	case sim.FnAnd, sim.FnMul:
		return func(_ []int64, planes []uint64, _, pwords, n int, _ []int64) {
			ob := po * pwords
			for w := 0; w<<6 < n; w++ {
				planes[ob+w] = ls.at(planes, pwords, w) & rs.at(planes, pwords, w)
			}
		}
	case sim.FnOr:
		return func(_ []int64, planes []uint64, _, pwords, n int, _ []int64) {
			ob := po * pwords
			for w := 0; w<<6 < n; w++ {
				planes[ob+w] = ls.at(planes, pwords, w) | rs.at(planes, pwords, w)
			}
		}
	case sim.FnXor:
		return func(_ []int64, planes []uint64, _, pwords, n int, _ []int64) {
			ob := po * pwords
			for w := 0; w<<6 < n; w++ {
				planes[ob+w] = ls.at(planes, pwords, w) ^ rs.at(planes, pwords, w)
			}
		}
	case sim.FnEq:
		return func(_ []int64, planes []uint64, _, pwords, n int, _ []int64) {
			ob := po * pwords
			for w := 0; w<<6 < n; w++ {
				planes[ob+w] = ^(ls.at(planes, pwords, w) ^ rs.at(planes, pwords, w))
			}
		}
	case sim.FnLt:
		return func(_ []int64, planes []uint64, _, pwords, n int, _ []int64) {
			ob := po * pwords
			for w := 0; w<<6 < n; w++ {
				planes[ob+w] = ^ls.at(planes, pwords, w) & rs.at(planes, pwords, w)
			}
		}
	default: // FnZero, FnUnused, out-of-range constants
		return func(_ []int64, planes []uint64, _, pwords, n int, _ []int64) {
			ob := po * pwords
			for w := 0; w<<6 < n; w++ {
				planes[ob+w] = 0
			}
		}
	}
}

func wordCopy(po int, src wordSrc) bitFn {
	return func(_ []int64, planes []uint64, _, pwords, n int, _ []int64) {
		ob := po * pwords
		for w := 0; w<<6 < n; w++ {
			planes[ob+w] = src.at(planes, pwords, w)
		}
	}
}

// withPack runs a component's lane-loop kernel and mirrors the fresh
// column into its plane, for 0/1 components the word-ops consume but
// cannot compute. Each plane word is built in a register and stored
// once; the last word keeps its bits at slots n and above, which hold
// retired lanes that sim.Gang may still materialize.
func withPack(gf gangFn, slot, plane int) bitFn {
	return func(vals []int64, planes []uint64, stride, pwords, n int, cycles []int64) {
		gf(vals, stride, n, cycles)
		col, pl := vals[slot*stride:][:n], planes[plane*pwords:][:(n+63)>>6]
		for w := range pl {
			seg := col[w<<6 : min(w<<6+64, n)]
			var word uint64
			for b := len(seg) - 1; b >= 0; b-- {
				word = word<<1 | uint64(seg[b]|-seg[b])>>63 // 1 when nonzero
			}
			if len(seg) < 64 {
				word |= pl[w] &^ (1<<len(seg) - 1)
			}
			pl[w] = word
		}
	}
}

// withScatter mirrors a freshly word-computed plane back into its
// column for the lane-loop code downstream that reads it.
func withScatter(fn bitFn, slot, plane int) bitFn {
	return func(vals []int64, planes []uint64, stride, pwords, n int, cycles []int64) {
		fn(vals, planes, stride, pwords, n, cycles)
		col := vals[slot*stride:][:n]
		for w, word := range planes[plane*pwords:][:(n+63)>>6] {
			seg := col[w<<6:]
			for b := range seg[:min(64, len(seg))] {
				seg[b] = int64(word & 1)
				word >>= 1
			}
		}
	}
}

// liftGang adapts an unchanged lane-loop kernel to the bit kernel list.
func liftGang(gf gangFn) bitFn {
	return func(vals []int64, _ []uint64, stride, _, n int, cycles []int64) {
		gf(vals, stride, n, cycles)
	}
}
