package aot

import (
	"bufio"
	"bytes"
	"encoding/binary"
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

func (w *frames) run(i int, rr RunResult) {
	w.u32(RunMagic)
	w.u32(uint32(i))
	w.u64(uint64(rr.Cycles))
	w.u64(rr.Hash)
	w.u64(uint64(rr.StatCycles))
	w.u32(uint32(len(rr.MemOps)))
	for _, ops := range rr.MemOps {
		for _, v := range ops {
			w.u64(uint64(v))
		}
	}
	if rr.Err == nil {
		w.u32(0)
	} else {
		w.u32(1)
		w.u64(uint64(rr.Err.Cycle))
		w.field([]byte(rr.Err.Component))
		w.field([]byte(rr.Err.Msg))
	}
	w.field(rr.State)
}

func (w *frames) end() { w.u32(EndMagic) }

// checkpointFrame is one checkpoint frame as readJob reports it.
type checkpointFrame struct {
	run   int
	cycle int64
	state []byte
}

// wellFormed is a two-run job: a checkpoint and a clean run with its
// state, then a run that faulted.
func wellFormed() ([]byte, []RunResult, []checkpointFrame) {
	runs := []RunResult{
		{Cycles: 100, Hash: 0xfeed, StatCycles: 100, MemOps: [][4]int64{{1, 2, 3, 4}, {5, 6, 7, 8}}, State: []byte("state")},
		{Cycles: 7, Hash: 0xbeef, StatCycles: 7, MemOps: [][4]int64{{0, 1, 0, 0}, {0, 0, 0, 2}},
			Err: &RunError{Component: "sel", Cycle: 7, Msg: "selector index 9 outside 0..1"}},
	}
	cks := []checkpointFrame{{0, 50, []byte("half")}}
	var w frames
	w.checkpoint(cks[0].run, cks[0].cycle, cks[0].state)
	w.run(0, runs[0])
	w.run(1, runs[1])
	w.end()
	return w.b, runs, cks
}

func read(data []byte, n int) ([]RunResult, []checkpointFrame, int, error) {
	rd := bytes.NewReader(data)
	br := bufio.NewReader(rd)
	var cks []checkpointFrame
	results, err := readJob(br, n, func(run int, cycle int64, st []byte) {
		cks = append(cks, checkpointFrame{run, cycle, st})
	})
	return results, cks, len(data) - br.Buffered() - rd.Len(), err
}

// TestReadJob decodes a well-formed job and refuses the frames a worker
// cannot have meant: runs beyond the job, runs out of order, an unknown
// error flag and a truncated stream.
func TestReadJob(t *testing.T) {
	data, runs, cks := wellFormed()
	got, gotCks, used, err := read(data, 2)
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
	if got, _, _, err := read(w.b, 2); err == nil || len(got) != 2 {
		t.Errorf("a third run frame for a two-run job: %d runs, err %v", len(got), err)
	}
	w = frames{}
	w.run(1, runs[0])
	if _, _, _, err := read(w.b, 2); err == nil {
		t.Error("run 1 before run 0 was accepted")
	}
	w = frames{}
	w.checkpoint(1, 10, nil)
	if _, _, _, err := read(w.b, 2); err == nil {
		t.Error("a checkpoint for a run not in progress was accepted")
	}
	w = frames{}
	w.checkpoint(cks[0].run, cks[0].cycle, cks[0].state)
	w.run(0, runs[0])
	// Run 1's error flag follows its magic, index, three counters, the
	// memory count and two memories' four counters each.
	bad := bytes.Clone(data)
	bad[len(w.b)+4+4+3*8+4+2*4*8] = 2
	if _, _, _, err := read(bad, 2); err == nil || !strings.Contains(err.Error(), "error flag 2") {
		t.Errorf("error flag 2: err %v", err)
	}
	for cut := range len(data) {
		if got, _, _, err := read(data[:cut], 2); err == nil || len(got) > 2 {
			t.Fatalf("truncated at %d: %d runs, err %v", cut, len(got), err)
		}
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
			_, _, _, err := read(ck.b, 1)
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
		results, cks, used, err := read(data, int(n))
		if len(results) > int(n) {
			t.Fatalf("%d runs for a job of %d", len(results), n)
		}
		if err != nil {
			return
		}
		if len(results) != int(n) {
			t.Fatalf("accepted %d runs for a job of %d", len(results), n)
		}
		// A checkpoint names the run in progress, so the frames'
		// order follows from the run indices.
		var w frames
		for i, rr := range results {
			for _, ck := range cks {
				if ck.run == i {
					w.checkpoint(ck.run, ck.cycle, ck.state)
				}
			}
			w.run(i, rr)
		}
		w.end()
		if !bytes.Equal(w.b, data[:used]) {
			t.Fatalf("accepted frames re-encode to\n%x\nbut consumed\n%x", w.b, data[:used])
		}
	})
}
