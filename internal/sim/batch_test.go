package sim_test

// Machine.RunBatch is a synonym for Machine.Run. On every backend it
// must be observationally identical to the interpreter's Run — same state
// digest, same statistics, same error — on the canonical machines and
// on generated specifications, and a run with a trace writer or an
// observer attached must fire it every cycle and still end where the
// hook-free run does.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/sim"
	"repro/internal/specgen"
)

// outcome is everything a run can observably produce.
type outcome struct {
	digest string
	stats  sim.Stats
	errstr string
}

func runOutcome(t *testing.T, spec *core.Spec, b core.Backend, cycles int64, batch bool) outcome {
	t.Helper()
	m, err := core.NewMachine(spec, b, core.Options{Output: io.Discard})
	if err != nil {
		t.Fatalf("backend %s: %v", b, err)
	}
	run := m.Run
	if batch {
		run = m.RunBatch
	}
	var errstr string
	if err := run(cycles); err != nil {
		errstr = err.Error()
	}
	return outcome{digest: campaign.SnapshotDigest(m), stats: m.Stats(), errstr: errstr}
}

// requireBatchEquivalence checks every backend's RunBatch against the
// interp/Run reference.
func requireBatchEquivalence(t *testing.T, name, src string, cycles int64) {
	t.Helper()
	spec, err := core.ParseString(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v\n%s", name, err, src)
	}
	ref := runOutcome(t, spec, core.Interp, cycles, false)
	for _, b := range core.Backends() {
		got := runOutcome(t, spec, b, cycles, true)
		label := fmt.Sprintf("%s/%s", name, b)
		if got.digest != ref.digest {
			t.Errorf("%s: digest %s, interp/Run has %s\nspec:\n%s", label, got.digest, ref.digest, src)
		}
		if got.errstr != ref.errstr {
			t.Errorf("%s: err %q, interp/Run has %q", label, got.errstr, ref.errstr)
		}
		if !reflect.DeepEqual(got.stats, ref.stats) {
			t.Errorf("%s: stats %+v, interp/Run has %+v", label, got.stats, ref.stats)
		}
	}
}

// TestRunBatchEquivalenceTestdata covers the canonical machines.
func TestRunBatchEquivalenceTestdata(t *testing.T) {
	td, err := machines.Testdata()
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range td {
		t.Run(name, func(t *testing.T) {
			requireBatchEquivalence(t, name, src, 2048)
		})
	}
}

// TestRunBatchEquivalenceRandom sweeps generated specifications, which
// also exercise the runtime-error paths (selector faults, address
// faults) on every backend.
func TestRunBatchEquivalenceRandom(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	for seed := 0; seed < n; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			src := specgen.Generate(rng, specgen.Config{
				Combs: 1 + rng.Intn(16),
				Mems:  1 + rng.Intn(4),
			})
			requireBatchEquivalence(t, fmt.Sprintf("seed%d", seed), src, 96)
		})
	}
}

// TestRunBatchObserverFallback attaches each kind of hook and checks
// that RunBatch services it: hooks fire every cycle and the outcome
// still matches the hook-free run.
func TestRunBatchObserverFallback(t *testing.T) {
	src, err := machines.SieveSpec(16)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParseString("sieve", src)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 512

	free, err := core.NewMachine(spec, core.Compiled, core.Options{Output: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := free.Run(cycles); err != nil {
		t.Fatal(err)
	}
	want := campaign.SnapshotDigest(free)

	t.Run("observer", func(t *testing.T) {
		m, err := core.NewMachine(spec, core.Compiled, core.Options{Output: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		m.Observe(func(*sim.Machine) { calls++ })
		if err := m.RunBatch(cycles); err != nil {
			t.Fatal(err)
		}
		if calls != cycles {
			t.Errorf("observer fired %d times, want %d", calls, cycles)
		}
		if got := campaign.SnapshotDigest(m); got != want {
			t.Errorf("digest %s, hook-free run has %s", got, want)
		}
	})

	t.Run("trace", func(t *testing.T) {
		var viaRun, viaBatch bytes.Buffer
		for _, tc := range []struct {
			buf  *bytes.Buffer
			name string
		}{{&viaRun, "run"}, {&viaBatch, "batch"}} {
			m, err := core.NewMachine(spec, core.Compiled, core.Options{Output: io.Discard, Trace: tc.buf})
			if err != nil {
				t.Fatal(err)
			}
			run := m.Run
			if tc.name == "batch" {
				run = m.RunBatch
			}
			if err := run(cycles); err != nil {
				t.Fatal(err)
			}
			if got := campaign.SnapshotDigest(m); got != want {
				t.Errorf("%s digest %s, hook-free run has %s", tc.name, got, want)
			}
		}
		if viaRun.Len() == 0 {
			t.Fatal("trace produced no output; the trace comparison is vacuous")
		}
		if viaRun.String() != viaBatch.String() {
			t.Error("RunBatch trace output differs from Run")
		}
	})
}
