package vcd

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
)

func run(t *testing.T, src string, signals []string, cycles int64) string {
	t.Helper()
	spec, err := core.ParseString("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(spec, core.Compiled, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	d, err := Attach(m, &out, signals)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(cycles); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestHeaderAndDefinitions(t *testing.T) {
	out := run(t, machines.Counter(), nil, 3)
	for _, want := range []string{
		"$version",
		"$timescale 1ns $end",
		"$scope module asim $end",
		"$enddefinitions $end",
		"count",
		"carry",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in VCD:\n%s", want, out)
		}
	}
}

func TestChangesOnlyOnChange(t *testing.T) {
	out := run(t, machines.Counter(), []string{"carry"}, 20)
	// carry is 0 for 15 cycles, pulses at the wrap; the dump must not
	// repeat unchanged values each cycle.
	timestamps := strings.Count(out, "#")
	if timestamps > 5 {
		t.Errorf("too many timestamps (%d) for a signal that changes twice:\n%s", timestamps, out)
	}
	if !strings.Contains(out, "#0") {
		t.Error("missing initial timestamp")
	}
}

func TestCounterValuesAppear(t *testing.T) {
	out := run(t, machines.Counter(), []string{"count"}, 5)
	// count is 4 bits wide -> 'b' binary format entries.
	for _, want := range []string{"b0 ", "b1 ", "b10 ", "b11 "} {
		if !strings.Contains(out, want) {
			t.Errorf("missing value %q:\n%s", want, out)
		}
	}
}

func TestSingleBitFormat(t *testing.T) {
	// carry has estimated width 1 -> scalar VCD changes "0!"/"1!".
	out := run(t, machines.Counter(), []string{"carry"}, 20)
	if !strings.Contains(out, "1!") || !strings.Contains(out, "0!") {
		t.Errorf("scalar change format missing:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	spec, err := core.ParseString("t", "#t\na .\nA a 1 0 1\n.")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := core.NewMachine(spec, core.Interp, core.Options{})
	var out strings.Builder
	if _, err := Attach(m, &out, nil); err == nil {
		t.Error("no traced signals should be an error")
	}
	if _, err := Attach(m, &out, []string{"ghost"}); err == nil {
		t.Error("unknown signal should be an error")
	}
}

func TestIDAllocation(t *testing.T) {
	ids := map[string]bool{}
	for i := 0; i < 500; i++ {
		id := idFor(i)
		if ids[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		ids[id] = true
		for _, r := range id {
			if r < '!' || r > '~' {
				t.Fatalf("id %q contains non-printable rune", id)
			}
		}
	}
}

// TestDumpsByteIdentical pins whole dumps of the bundled machines on the
// compiled backend — every component, or the traced set — to the bytes
// the dumper wrote when it still read widths off the syntax tree; the
// widths now come from the machine's layout.
func TestDumpsByteIdentical(t *testing.T) {
	srcs, err := machines.Testdata()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec   string
		traced bool
		sha256 string
	}{
		{"counter.sim", true, "4c91fd8b940f6ade871c802d9ef4fe7d48ad8e569cb662f1b869bf28ea47cbf3"},
		{"counter.sim", false, "deabcd299c0286eba27d66b2cbe4d5f54ed570a585550aa8b5e2ffa399fef5e0"},
		{"ibsm1986.sim", false, "7b711b253c1551333f6875a025539db348c05a00d37370fe868f0f25a325b3e5"},
		{"sieve.sim", false, "4a7c0dadfad0c9d4aebdb36d25efdabd92d0e17200c73b815000e629ed185814"},
		{"tinycpu.sim", true, "a03d30452c9a407ab24e65e1aa9cea0ba613c5b24c1317d14c2bb1db4ea3caea"},
		{"tinycpu.sim", false, "3dd543cbfb48ac610d2116365aa714586c5b03d9c5d9bb276c28e2dcd4841aa9"},
	} {
		spec, err := core.ParseString(tc.spec, srcs[tc.spec])
		if err != nil {
			t.Fatal(err)
		}
		var signals []string
		if !tc.traced {
			for _, c := range spec.Info.Order {
				signals = append(signals, c.CompName())
			}
		}
		out := run(t, srcs[tc.spec], signals, 200)
		if sum := sha256.Sum256([]byte(out)); hex.EncodeToString(sum[:]) != tc.sha256 {
			t.Errorf("%s (traced only: %v): dump hashes to %x, want %s", tc.spec, tc.traced, sum, tc.sha256)
		}
	}
}
