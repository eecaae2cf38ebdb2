package gogen

import (
	"fmt"

	"repro/internal/aot"
	"repro/internal/codegen"
	"repro/internal/lower"
	"repro/internal/sim"
)

// A worker is not a standalone program tracing one fixed run: the
// generated binary speaks the internal/aot job protocol on
// stdin/stdout — reset, run N cycles, answer with the fault (if any)
// and the final state snapshot — so the campaign engine can drive it
// as the native rung of a compiled program. The snapshot is the whole
// result: the host restores it into a machine and reads cycles,
// statistics and digest out of it.
//
// The worker's whole mutable state is the snapshot: one array st laid
// out on sim's word map (sim.WordMap), which places every value slot,
// latch, memory cell, operation count and the cycle counter, framing
// words included. Every name the op, latch and commit printers emit is
// an st[k] form, so saving state is serializing the array, and reset
// is copying sim's power-on image over it. The worker knows nothing of
// the format itself.
//
// Everything observable must match the in-process backends bit for
// bit: statistics count exactly what the scalar commit counts, and
// runtime faults carry the same component/message pair with the same
// partial-state semantics (earlier combinational values and memory
// commits of the failing cycle are retained, the cycle counter is not
// advanced, so the snapshot's cycle is the fault's).

// Worker prints the native protocol worker of a compiled program from
// what the program keeps: its slot layout and the lowered program its
// kernels were built from (compile.Compiled.Lowered). The worker never
// traces, and the job stream supplies every cycle target.
func Worker(lay *sim.Layout, prog *lower.Program) string {
	w := lay.WordMap()
	g := &generator{lay: lay, prog: prog, vars: make([]string, lay.Slots())}
	for k := range g.vars {
		g.vars[k] = word(w.Slot(k))
	}
	for i := range lay.Mems {
		g.mems = append(g.mems, memVars{word(w.Addr(i)), word(w.Data(i)), word(w.Opn(i)), fmt.Sprintf("st[%d+%%s]", w.Cells(i))})
	}
	g.p("// Code generated by asimc (ASIM II reproduction), aot worker mode. DO NOT EDIT.")
	g.p("package main")
	g.p("")
	g.p("import (")
	g.ind++
	g.p("\"bufio\"")
	g.p("\"encoding/binary\"")
	g.p("\"fmt\"")
	g.p("\"io\"")
	g.p("\"os\"")
	g.ind--
	g.p(")")
	g.p("")
	g.p("const mask = %d", sim.Mask)
	g.p("")
	g.p("func land(a, b int64) int64 { return int64(int32(uint32(a) & uint32(b))) }")
	g.p("")
	g.emitDologic()
	g.p("")
	g.emitState(w)
	g.p("")
	g.emitFail()
	g.p("")
	g.emitRunCycle(w)
	g.p("")
	g.emitWorkerIO()
	g.p("")
	g.emitWorkerMain()
	return g.b.String()
}

// word names the state word at offset off.
func word(off int) string { return fmt.Sprintf("st[%d]", off) }

// emitState prints the state array, sim's power-on image (its
// non-zero words), and the reset, cycle loop and snapshot over them.
func (g *generator) emitState(w sim.WordMap) {
	g.p("// st is the machine state, laid out as its snapshot.")
	g.p("var st [%d]int64", w.Len())
	g.p("")
	g.p("var poweron = [%d]int64{", w.Len())
	for off, v := range w.PowerOn() {
		if v != 0 {
			g.p("\t%d: %d,", off, v)
		}
	}
	g.p("}")
	g.p("")
	g.p("const cycle, statscycles = %d, %d", w.Cycle(), w.StatsCycles())
	g.p("")
	g.p("var errcomp, errmsg string")
	g.p("")
	g.p("func reset() {")
	g.p("\tst = poweron")
	g.p("\terrcomp, errmsg = \"\", \"\"")
	g.p("}")
	g.p("")
	g.p("func runto(target int64) bool {")
	g.p("\tfor st[cycle] < target {")
	g.p("\t\tif !runcycle() {")
	g.p("\t\t\treturn false")
	g.p("\t\t}")
	g.p("\t\tst[cycle]++")
	g.p("\t\tst[statscycles]++")
	g.p("\t}")
	g.p("\treturn true")
	g.p("}")
	g.p("")
	g.p("var statebuf []byte")
	g.p("")
	g.p("func savestate() []byte {")
	g.p("\tstatebuf = statebuf[:0]")
	g.p("\tfor _, v := range st {")
	g.p("\t\tstatebuf = binary.LittleEndian.AppendUint64(statebuf, uint64(v))")
	g.p("\t}")
	g.p("\treturn statebuf")
	g.p("}")
}

func (g *generator) emitFail() {
	g.p("func fail(comp, format string, args ...interface{}) {")
	g.ind++
	g.p("errcomp, errmsg = comp, fmt.Sprintf(format, args...)")
	g.ind--
	g.p("}")
}

// emitRunCycle is the worker counterpart of the standalone main loop
// body: the same evaluation (emitEval), then the memory commit — but
// faults report through fail and bail instead of exiting, and every
// commit counts into the statistics.
func (g *generator) emitRunCycle(w sim.WordMap) {
	g.p("func runcycle() bool {")
	g.ind++
	g.emitEval()
	g.p("// commit memory operations")
	for i := range g.prog.Latches {
		g.emitMemoryCommitWorker(i, w.MemOps(i))
	}
	g.p("return true")
	g.ind--
	g.p("}")
}

// emitMemoryCommitWorker mirrors the scalar commit for one memory:
// bounds-checked read/write, input always faults (campaign machines
// have no input device), output is counted and discarded. Statistics,
// the four words from ops on, are bumped only after a successful
// commit, matching the in-process partial-state-on-error semantics.
func (g *generator) emitMemoryCommitWorker(i, ops int) {
	m, mv := g.lay.Mems[i], g.mems[i]
	temp, adr, data := g.vars[m.Slot], mv.adr, mv.data
	cell := fmt.Sprintf(mv.cell, adr)

	bounds := func(pfx, verb string) {
		g.p("%sif %s < 0 || %s >= %d {", pfx, adr, adr, m.Size)
		g.p("%s\tfail(%q, \"%s address %%d outside 0..%%d\", %s, int64(%d))", pfx, m.Name, verb, adr, m.Size-1)
		g.p("%s\treturn false", pfx)
		g.p("%s}", pfx)
	}
	// A worker never traces, so the operation's width is never read.
	g.emitDispatch(codegen.ClassifyMemOp(&g.prog.Latches[i], 0), mv.opn, [4]func(string){
		func(pfx string) {
			bounds(pfx, "read")
			g.p("%s%s = %s", pfx, temp, cell)
			g.p("%s%s++", pfx, word(ops+sim.OpRead))
		},
		func(pfx string) {
			bounds(pfx, "write")
			g.p("%s%s = %s", pfx, temp, data)
			g.p("%s%s = %s", pfx, cell, data)
			g.p("%s%s++", pfx, word(ops+sim.OpWrite))
		},
		func(pfx string) {
			g.p("%sfail(%q, \"input operation with no input attached\")", pfx, m.Name)
			g.p("%sreturn false", pfx)
		},
		func(pfx string) {
			g.p("%s%s = %s", pfx, temp, data)
			g.p("%s%s++", pfx, word(ops+sim.OpOutput))
		},
	})
}

func (g *generator) emitWorkerIO() {
	g.p("var in = bufio.NewReaderSize(os.Stdin, 1<<16)")
	g.p("var out = bufio.NewWriterSize(os.Stdout, 1<<16)")
	g.p("")
	g.p("func tryru32() (uint32, bool) {")
	g.p("\tvar b [4]byte")
	g.p("\tif _, err := io.ReadFull(in, b[:]); err != nil {")
	g.p("\t\treturn 0, false")
	g.p("\t}")
	g.p("\treturn binary.LittleEndian.Uint32(b[:]), true")
	g.p("}")
	g.p("")
	g.p("func ru32() uint32 {")
	g.p("\tv, ok := tryru32()")
	g.p("\tif !ok {")
	g.p("\t\tos.Exit(2)")
	g.p("\t}")
	g.p("\treturn v")
	g.p("}")
	g.p("")
	g.p("func ru64() uint64 {")
	g.p("\tvar b [8]byte")
	g.p("\tif _, err := io.ReadFull(in, b[:]); err != nil {")
	g.p("\t\tos.Exit(2)")
	g.p("\t}")
	g.p("\treturn binary.LittleEndian.Uint64(b[:])")
	g.p("}")
	g.p("")
	g.p("func wu32(v uint32) {")
	g.p("\tvar b [4]byte")
	g.p("\tbinary.LittleEndian.PutUint32(b[:], v)")
	g.p("\tout.Write(b[:])")
	g.p("}")
	g.p("")
	g.p("func wu64(v uint64) {")
	g.p("\tvar b [8]byte")
	g.p("\tbinary.LittleEndian.PutUint64(b[:], v)")
	g.p("\tout.Write(b[:])")
	g.p("}")
	g.p("")
	g.p("func wstr(s string) {")
	g.p("\twu32(uint32(len(s)))")
	g.p("\tout.WriteString(s)")
	g.p("}")
}

func (g *generator) emitWorkerMain() {
	g.p("func main() {")
	g.ind++
	g.p("for {")
	g.ind++
	g.p("magic, more := tryru32()")
	g.p("if !more {")
	g.p("\tout.Flush()")
	g.p("\treturn // stdin EOF: clean shutdown")
	g.p("}")
	g.p("if magic != %#x {", aot.JobMagic)
	g.p("\tos.Exit(2)")
	g.p("}")
	g.p("every := int64(ru64())")
	g.p("nruns := int(ru32())")
	g.p("for run := 0; run < nruns; run++ {")
	g.ind++
	g.p("target := int64(ru64())")
	g.p("reset()")
	g.p("ok := true")
	g.p("for ok && st[cycle] < target {")
	g.p("\tnext := target")
	g.p("\tif every > 0 && st[cycle]+every < target {")
	g.p("\t\tnext = st[cycle] + every")
	g.p("\t}")
	g.p("\tok = runto(next)")
	g.p("\tif ok && st[cycle] < target {")
	g.p("\t\twu32(%#x)", aot.CheckpointMagic)
	g.p("\t\twu32(uint32(run))")
	g.p("\t\twu64(uint64(st[cycle]))")
	g.p("\t\tst := savestate()")
	g.p("\t\twu32(uint32(len(st)))")
	g.p("\t\tout.Write(st)")
	g.p("\t\tout.Flush()")
	g.p("\t}")
	g.p("}")
	g.p("wu32(%#x)", aot.RunMagic)
	g.p("wu32(uint32(run))")
	g.p("if ok {")
	g.p("\twu32(0)")
	g.p("} else {")
	g.p("\twu32(1)")
	g.p("\twstr(errcomp)")
	g.p("\twstr(errmsg)")
	g.p("}")
	g.p("st := savestate()")
	g.p("wu32(uint32(len(st)))")
	g.p("out.Write(st)")
	g.p("out.Flush()")
	g.ind--
	g.p("}")
	g.p("wu32(%#x)", aot.EndMagic)
	g.p("out.Flush()")
	g.ind--
	g.p("}")
	g.ind--
	g.p("}")
}
