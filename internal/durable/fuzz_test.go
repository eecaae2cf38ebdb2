package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// validPrefix is the recovery scan's specification, written out
// independently: the records of the longest prefix of complete,
// CRC-valid frames after the magic, and the byte length of that
// prefix (magic included). ok is false when the bytes are not a
// segment at all: at least a magic's worth of bytes that are not the
// magic.
func validPrefix(seg []byte) (recs []Record, end int, ok bool) {
	if len(seg) < len(segMagic) {
		return nil, len(segMagic), true // re-initialized as an empty segment
	}
	if string(seg[:len(segMagic)]) != segMagic {
		return nil, 0, false
	}
	off := len(segMagic)
	for len(seg)-off >= frameHead {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		crc := binary.LittleEndian.Uint32(seg[off+4:])
		if n < payloadHead || n > payloadHead+maxRecordData || n > len(seg)-off-frameHead {
			break
		}
		payload := seg[off+frameHead : off+frameHead+n]
		if crc32.Checksum(payload, crcTable) != crc {
			break
		}
		recs = append(recs, Record{
			Kind:  Kind(payload[0]),
			Run:   int64(binary.LittleEndian.Uint64(payload[1:])),
			Cycle: int64(binary.LittleEndian.Uint64(payload[9:])),
			Data:  append([]byte{}, payload[payloadHead:]...),
		})
		off += frameHead + n
	}
	return recs, off, true
}

// replayAll collects a job's records, owning their data.
func replayAll(t *testing.T, s *FileStore, job string) ([]Record, error) {
	var got []Record
	err := s.Replay(job, func(r Record) error {
		r.Data = append([]byte{}, r.Data...)
		got = append(got, r)
		return nil
	})
	return got, err
}

// FuzzSegmentRecover treats arbitrary bytes as a job's .seg file.
// Opening and replaying it never panics. A file that is not a segment
// is refused; any other recovers to exactly the longest prefix of
// CRC-valid frames — the file is truncated there — and an Append after
// recovery replays as those records plus the new one.
func FuzzSegmentRecover(f *testing.F) {
	seedDir := f.TempDir()
	seedStore, err := OpenFileStore(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []Record{
		{Kind: KindAdmit, Data: []byte(`{"spec":"x"}`)},
		{Kind: KindCheckpoint, Run: 3, Cycle: 4096, Data: bytes.Repeat([]byte{0xab}, 40)},
		{Kind: KindResult, Run: 1, Data: []byte(`{"index":1}`)},
		{Kind: KindDone},
	} {
		if err := seedStore.Append("s", r); err != nil {
			f.Fatal(err)
		}
	}
	seedStore.Close()
	good, err := os.ReadFile(filepath.Join(seedDir, "s"+segSuffix))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3])               // torn tail
	f.Add(good[:len(segMagic)+frameHead+5]) // torn first record
	flipped := append([]byte{}, good...)
	flipped[len(segMagic)+frameHead+2] ^= 1 // corrupt the first payload
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte(segMagic[:5]))
	f.Add([]byte("NOTASEGMENTFILE"))

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "j"+segSuffix)
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		want, end, ok := validPrefix(seg)
		s, err := OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got, err := replayAll(t, s, "j")
		if !ok {
			if err == nil {
				t.Fatalf("a %d-byte non-segment replayed without error: %v", len(seg), got)
			}
			return
		}
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("recovered %d records, want the valid prefix's %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(end) {
			t.Fatalf("recovered file is %v bytes (err %v), want the valid prefix's %d", fi.Size(), err, end)
		}

		next := Record{Kind: KindResult, Run: 7, Cycle: 9, Data: []byte("after recovery")}
		if err := s.Append("j", next); err != nil {
			t.Fatal(err)
		}
		got, err = replayAll(t, s, "j")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, next)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after an append, replayed %+v, want %+v", got, want)
		}
	})
}
