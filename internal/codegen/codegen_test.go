package codegen

import (
	"testing"

	"repro/internal/lower"
	"repro/internal/rtl/parser"
	"repro/internal/rtl/sem"
)

func TestNameMangling(t *testing.T) {
	// The "ljb" prefix is the thesis author's initials, preserved for
	// fidelity with Appendix E.
	if Comb("alu") != "ljbalu" || Temp("ram") != "tempram" {
		t.Error("mangling wrong")
	}
	if Adr("m") != "adrm" || Data("m") != "datam" || Opn("m") != "opnm" {
		t.Error("latch names wrong")
	}
}

// mem lowers a one-memory spec with the given operation expression and
// returns its latch and the operation's declared width, ClassifyMemOp's
// two arguments.
func mem(t *testing.T, opn string) (*lower.Latch, int) {
	t.Helper()
	spec, err := parser.ParseString("m", "#m\nx a r m .\nA x 1 0 0\nA a 1 0 0\nA r 1 0 0\nM m 0 0 "+opn+" 1\n.\n")
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Analyze(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := lower.Lower(info, true)
	return &p.Latches[0], info.Mems[0].Opn.Width()
}

func TestClassifyConstOps(t *testing.T) {
	cases := []struct {
		opn    string
		op     int64
		writes bool
		reads  bool
	}{
		{"0", 0, false, false},
		{"1", 1, false, false},
		{"5", 1, true, false},  // write + trace-writes
		{"8", 0, false, true},  // read + trace-reads
		{"13", 1, true, false}, // write with both bits: write trace only
		{"12", 0, false, true}, // read with both bits: read trace only
		{"2", 2, false, false},
		{"3", 3, false, false},
	}
	for _, tc := range cases {
		c := ClassifyMemOp(mem(t, tc.opn))
		if !c.Const || c.Op != tc.op || c.TraceWrites != tc.writes || c.TraceReads != tc.reads {
			t.Errorf("ClassifyMemOp(%s) = %+v", tc.opn, c)
		}
	}
}

func TestClassifyDynamicOps(t *testing.T) {
	// A 1-bit operation can never set trace bits; wider ones can.
	c := ClassifyMemOp(mem(t, "x.0"))
	if c.Const || c.MayTraceWrites || c.MayTraceReads {
		t.Errorf("1-bit dynamic op = %+v", c)
	}
	c = ClassifyMemOp(mem(t, "x.0.2"))
	if c.Const || !c.MayTraceWrites || c.MayTraceReads {
		t.Errorf("3-bit dynamic op = %+v", c)
	}
	c = ClassifyMemOp(mem(t, "x.0.3"))
	if c.Const || !c.MayTraceWrites || !c.MayTraceReads {
		t.Errorf("4-bit dynamic op = %+v", c)
	}
	// The stack machine's "addr.12,rom.8" two-bit concat: no traces.
	c = ClassifyMemOp(mem(t, "a.12,r.8"))
	if c.Const || c.MayTraceWrites || c.MayTraceReads {
		t.Errorf("2-bit concat op = %+v", c)
	}
}
