package aot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// frames encodes worker frames as gogen's worker writes them.
type frames struct{ b []byte }

func (w *frames) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *frames) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

func (w *frames) field(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}

func (w *frames) checkpoint(run int, cycle int64, st []byte) {
	w.u32(CheckpointMagic)
	w.u32(uint32(run))
	w.u64(uint64(cycle))
	w.field(st)
}

func (w *frames) run(i int, rf runFrame) {
	w.u32(RunMagic)
	w.u32(uint32(i))
	if rf.fault == nil {
		w.u32(0)
	} else {
		w.u32(1)
		w.field([]byte(rf.fault.Component))
		w.field([]byte(rf.fault.Msg))
	}
	w.field(rf.state)
}

func (w *frames) end() { w.u32(EndMagic) }

// checkpointFrame is one checkpoint frame as readJob reports it.
type checkpointFrame struct {
	run   int
	cycle int64
	state []byte
}

// runFrame is one run frame as readJob hands it to onRun.
type runFrame struct {
	fault *RunError
	state []byte
}

// wellFormed is a two-run job: a checkpoint and a clean run, then a
// run that faulted, each with its final state.
func wellFormed() ([]byte, []runFrame, []checkpointFrame) {
	runs := []runFrame{
		{state: []byte("state")},
		{fault: &RunError{Component: "sel", Msg: "selector index 9 outside 0..1"}, state: []byte("post-fault")},
	}
	cks := []checkpointFrame{{0, 50, []byte("half")}}
	var w frames
	w.checkpoint(cks[0].run, cks[0].cycle, cks[0].state)
	w.run(0, runs[0])
	w.run(1, runs[1])
	w.end()
	return w.b, runs, cks
}

// read decodes data as the answer to a job of n runs, collecting the
// frames readJob reports and the bytes it consumed.
func read(t *testing.T, data []byte, n int) ([]runFrame, []checkpointFrame, int, error) {
	rd := bytes.NewReader(data)
	br := bufio.NewReader(rd)
	var runs []runFrame
	var cks []checkpointFrame
	done, err := readJob(br, n, func(run int, cycle int64, st []byte) {
		cks = append(cks, checkpointFrame{run, cycle, st})
	}, func(run int, fault *RunError, st []byte) error {
		if run != len(runs) {
			t.Fatalf("run frame %d handed over as run %d", len(runs), run)
		}
		runs = append(runs, runFrame{fault, st})
		return nil
	})
	if done != len(runs) {
		t.Fatalf("readJob reports %d runs, handed over %d", done, len(runs))
	}
	return runs, cks, len(data) - br.Buffered() - rd.Len(), err
}

// TestReadJob decodes a well-formed job and refuses the frames a worker
// cannot have meant: runs beyond the job, runs out of order, an unknown
// fault flag and a truncated stream. An error from onRun ends the job
// after the runs already handed over.
func TestReadJob(t *testing.T) {
	data, runs, cks := wellFormed()
	got, gotCks, used, err := read(t, data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, runs) || !reflect.DeepEqual(gotCks, cks) || used != len(data) {
		t.Fatalf("decoded %+v, checkpoints %+v, %d of %d bytes", got, gotCks, used, len(data))
	}

	var w frames
	w.run(0, runs[0])
	w.run(1, runs[1])
	w.run(2, runs[1])
	w.end()
	if got, _, _, err := read(t, w.b, 2); err == nil || len(got) != 2 {
		t.Errorf("a third run frame for a two-run job: %d runs, err %v", len(got), err)
	}
	w = frames{}
	w.run(1, runs[0])
	if _, _, _, err := read(t, w.b, 2); err == nil {
		t.Error("run 1 before run 0 was accepted")
	}
	w = frames{}
	w.checkpoint(1, 10, nil)
	if _, _, _, err := read(t, w.b, 2); err == nil {
		t.Error("a checkpoint for a run not in progress was accepted")
	}
	w = frames{}
	w.checkpoint(cks[0].run, cks[0].cycle, cks[0].state)
	w.run(0, runs[0])
	// Run 1's fault flag follows its magic and index.
	bad := bytes.Clone(data)
	bad[len(w.b)+4+4] = 2
	if _, _, _, err := read(t, bad, 2); err == nil || !strings.Contains(err.Error(), "fault flag 2") {
		t.Errorf("fault flag 2: err %v", err)
	}
	for cut := range len(data) {
		if got, _, _, err := read(t, data[:cut], 2); err == nil || len(got) > 2 {
			t.Fatalf("truncated at %d: %d runs, err %v", cut, len(got), err)
		}
	}

	refuse := errors.New("snapshot refused")
	done, err := readJob(bufio.NewReader(bytes.NewReader(data)), 2, nil, func(run int, _ *RunError, _ []byte) error {
		if run == 1 {
			return refuse
		}
		return nil
	})
	if done != 1 || err != refuse {
		t.Errorf("onRun refusing run 1: %d runs, err %v", done, err)
	}
}

// TestClaimedLengthNotPreallocated: a length field the worker claims
// but never sends costs a bounded buffer, not the claim.
func TestClaimedLengthNotPreallocated(t *testing.T) {
	const claim = 512 << 20
	var bare, ck frames
	bare.u32(claim)
	ck.u32(CheckpointMagic)
	ck.u32(0)
	ck.u64(10)
	ck.u32(claim)
	for _, tc := range []struct {
		name string
		read func() error
	}{
		{"field", func() error {
			_, err := rbytes(bufio.NewReader(bytes.NewReader(bare.b)), maxStateLen)
			return err
		}},
		{"checkpoint", func() error {
			_, _, _, err := read(t, ck.b, 1)
			return err
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a %d-byte claim followed by EOF decoded", tc.name, claim)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for a claim that never arrived", tc.name, alloc)
		}
	}
}

// FuzzWorkerFrames feeds arbitrary bytes to the job reader as the
// answer to a job of n runs. It must not panic, must return at most n
// runs, and must accept only a well-formed job: whatever it accepts
// re-encodes to exactly the bytes it consumed.
func FuzzWorkerFrames(f *testing.F) {
	data, _, _ := wellFormed()
	f.Add(uint8(2), data)
	f.Add(uint8(1), data)
	f.Add(uint8(3), data)
	f.Add(uint8(2), data[:len(data)-3])
	f.Add(uint8(0), binary.LittleEndian.AppendUint32(nil, EndMagic))
	var claim frames
	claim.checkpoint(0, 1, nil)
	claim.u32(CheckpointMagic)
	claim.u32(0)
	claim.u64(2)
	claim.u32(512 << 20)
	f.Add(uint8(1), claim.b)
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		runs, cks, used, err := read(t, data, int(n))
		if len(runs) > int(n) {
			t.Fatalf("%d runs for a job of %d", len(runs), n)
		}
		if err != nil {
			return
		}
		if len(runs) != int(n) {
			t.Fatalf("accepted %d runs for a job of %d", len(runs), n)
		}
		// A checkpoint names the run in progress, so the frames'
		// order follows from the run indices.
		var w frames
		for i, rf := range runs {
			for _, ck := range cks {
				if ck.run == i {
					w.checkpoint(ck.run, ck.cycle, ck.state)
				}
			}
			w.run(i, rf)
		}
		w.end()
		if !bytes.Equal(w.b, data[:used]) {
			t.Fatalf("accepted frames re-encode to\n%x\nbut consumed\n%x", w.b, data[:used])
		}
	})
}
