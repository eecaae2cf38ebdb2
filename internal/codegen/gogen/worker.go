package gogen

import (
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
// Everything observable must match the in-process backends bit for
// bit: state snapshots use the exact Machine.SaveState layout,
// statistics count exactly what Machine.commitMems counts, and runtime
// faults carry the same component/message pair with the same
// partial-state semantics (earlier combinational values and memory
// commits of the failing cycle are retained, the cycle counter is not
// advanced, so the snapshot's cycle is the fault's).

// Worker prints the native protocol worker of a compiled program from
// what the program keeps: its slot layout and the lowered program its
// kernels were built from (compile.Compiled.Lowered). The worker never
// traces, and the job stream supplies every cycle target.
func Worker(lay *sim.Layout, prog *lower.Program) string {
	g := &generator{lay: lay, prog: prog, vars: codegen.Vars(lay)}
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
	g.emitVars()
	g.p("")
	g.emitWorkerState()
	g.p("")
	g.emitInitValues()
	g.p("")
	g.emitReset()
	g.p("")
	g.emitFail()
	g.p("")
	g.emitRunCycle()
	g.p("")
	g.emitRunTo()
	g.p("")
	g.emitSaveState()
	g.p("")
	g.emitWorkerIO()
	g.p("")
	g.emitWorkerMain()
	return g.b.String()
}

func (g *generator) emitWorkerState() {
	g.p("var (")
	g.ind++
	g.p("cyclecount int64")
	g.p("errcomp    string")
	g.p("errmsg     string")
	for _, m := range g.lay.Mems {
		g.p("%s, %s, %s, %s int64", rds(m.Name), wrs(m.Name), ins(m.Name), outs(m.Name))
	}
	g.ind--
	g.p(")")
}

func rds(name string) string  { return "rds" + codegen.Comb(name) }
func wrs(name string) string  { return "wrs" + codegen.Comb(name) }
func ins(name string) string  { return "ins" + codegen.Comb(name) }
func outs(name string) string { return "outs" + codegen.Comb(name) }

// emitReset restores the power-on state between runs, exactly like a
// Machine.Reset: values, latches and arrays zeroed, declared
// initializers applied, statistics cleared. runcycle stores every latch
// from its lowered expression, so a snapshot at any cycle — 0 included
// — matches the machine's byte for byte.
func (g *generator) emitReset() {
	g.p("func reset() {")
	g.ind++
	for _, v := range g.combVars() {
		g.p("%s = 0", v)
	}
	for _, m := range g.lay.Mems {
		g.p("%s, %s, %s, %s = 0, 0, 0, 0", codegen.Temp(m.Name), codegen.Adr(m.Name), codegen.Data(m.Name), codegen.Opn(m.Name))
		g.p("for i := range %s {", codegen.Comb(m.Name))
		g.p("\t%s[i] = 0", codegen.Comb(m.Name))
		g.p("}")
		g.p("%s, %s, %s, %s = 0, 0, 0, 0", rds(m.Name), wrs(m.Name), ins(m.Name), outs(m.Name))
	}
	g.p("initvalues()")
	g.p("cyclecount = 0")
	g.p("errcomp, errmsg = \"\", \"\"")
	g.ind--
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
func (g *generator) emitRunCycle() {
	g.p("func runcycle() bool {")
	g.ind++
	g.emitEval()
	g.p("// commit memory operations")
	for i := range g.prog.Latches {
		g.emitMemoryCommitWorker(i)
	}
	g.p("return true")
	g.ind--
	g.p("}")
}

// emitMemoryCommitWorker mirrors Machine.commitMems for one memory:
// bounds-checked read/write, input always faults (campaign machines
// have no input device), output is counted and discarded. Statistics
// are bumped only after a successful commit, matching the in-process
// partial-state-on-error semantics.
func (g *generator) emitMemoryCommitWorker(i int) {
	m := g.lay.Mems[i]
	arr := codegen.Comb(m.Name)
	temp := codegen.Temp(m.Name)
	adr := codegen.Adr(m.Name)
	data := codegen.Data(m.Name)
	opn := codegen.Opn(m.Name)
	size := m.Size

	bounds := func(pfx, verb string) {
		g.p("%sif %s < 0 || %s >= %d {", pfx, adr, adr, size)
		g.p("%s\tfail(%q, \"%s address %%d outside 0..%%d\", %s, int64(%d))", pfx, m.Name, verb, adr, size-1)
		g.p("%s\treturn false", pfx)
		g.p("%s}", pfx)
	}
	// A worker never traces, so the operation's width is never read.
	g.emitDispatch(codegen.ClassifyMemOp(&g.prog.Latches[i], 0), opn, [4]func(string){
		func(pfx string) {
			bounds(pfx, "read")
			g.p("%s%s = %s[%s]", pfx, temp, arr, adr)
			g.p("%s%s++", pfx, rds(m.Name))
		},
		func(pfx string) {
			bounds(pfx, "write")
			g.p("%s%s = %s", pfx, temp, data)
			g.p("%s%s[%s] = %s", pfx, arr, adr, data)
			g.p("%s%s++", pfx, wrs(m.Name))
		},
		func(pfx string) {
			g.p("%sfail(%q, \"input operation with no input attached\")", pfx, m.Name)
			g.p("%sreturn false", pfx)
		},
		func(pfx string) {
			g.p("%s%s = %s", pfx, temp, data)
			g.p("%s%s++", pfx, outs(m.Name))
		},
	})
}

func (g *generator) emitRunTo() {
	g.p("func runto(target int64) bool {")
	g.ind++
	g.p("for cyclecount < target {")
	g.p("\tif !runcycle() {")
	g.p("\t\treturn false")
	g.p("\t}")
	g.p("\tcyclecount++")
	g.p("}")
	g.p("return true")
	g.ind--
	g.p("}")
}

// emitSaveState emits Machine.SaveState's exact byte layout.
func (g *generator) emitSaveState() {
	g.p("var statebuf []byte")
	g.p("")
	g.p("func put(v int64) {")
	g.p("\tstatebuf = binary.LittleEndian.AppendUint64(statebuf, uint64(v))")
	g.p("}")
	g.p("")
	g.p("func savestate() []byte {")
	g.ind++
	g.p("statebuf = statebuf[:0]")
	g.p("put(int64(%d)) // snapshot magic", sim.SnapshotMagic)
	g.p("put(%d) // value slots", len(g.vars))
	for _, v := range g.vars {
		g.p("put(%s)", v)
	}
	g.p("put(%d) // memories", len(g.lay.Mems))
	for _, m := range g.lay.Mems {
		g.p("put(%d)", m.Size)
		g.p("for _, v := range %s {", codegen.Comb(m.Name))
		g.p("\tput(v)")
		g.p("}")
	}
	for _, m := range g.lay.Mems {
		g.p("put(%s)", codegen.Adr(m.Name))
	}
	for _, m := range g.lay.Mems {
		g.p("put(%s)", codegen.Data(m.Name))
	}
	for _, m := range g.lay.Mems {
		g.p("put(%s)", codegen.Opn(m.Name))
	}
	g.p("put(cyclecount)")
	g.p("put(cyclecount) // stats cycles")
	for _, m := range g.lay.Mems {
		g.p("put(%s)", rds(m.Name))
		g.p("put(%s)", wrs(m.Name))
		g.p("put(%s)", ins(m.Name))
		g.p("put(%s)", outs(m.Name))
	}
	g.p("return statebuf")
	g.ind--
	g.p("}")
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
	g.p("for ok && cyclecount < target {")
	g.p("\tnext := target")
	g.p("\tif every > 0 && cyclecount+every < target {")
	g.p("\t\tnext = cyclecount + every")
	g.p("\t}")
	g.p("\tok = runto(next)")
	g.p("\tif ok && cyclecount < target {")
	g.p("\t\twu32(%#x)", aot.CheckpointMagic)
	g.p("\t\twu32(uint32(run))")
	g.p("\t\twu64(uint64(cyclecount))")
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
