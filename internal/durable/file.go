package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// FileStore is the durable Store: one append-only segment file per
// job under a directory, each record CRC-framed and fsynced at its
// record boundary, so the tail of a segment after a crash is at worst
// one torn record — which the recovery scan detects and truncates.
//
// Segment layout:
//
//	8 bytes  segment magic "ASIMSEG1"
//	records  { u32 payload length | u32 CRC-32C of payload | payload }
//	payload  { u8 kind | u64 run | u64 cycle | data... }
//
// All integers little-endian. A record is valid iff its frame is
// complete and the CRC matches; the first invalid record ends the
// segment (append-only + fsync-per-record means everything before a
// torn record was durably written in order). The scan's truncation
// point becomes the append offset, so a recovered segment continues
// growing from its last good record.
type FileStore struct {
	dir string

	mu   sync.Mutex
	segs map[string]*segment
}

const (
	segMagic  = "ASIMSEG1"
	segSuffix = ".seg"

	// frameHead is the per-record framing overhead: payload length and
	// CRC, 4 bytes each.
	frameHead = 8
	// payloadHead is the fixed payload prefix: kind, run, cycle.
	payloadHead = 1 + 8 + 8
	// maxRecordData bounds a single record's data so a corrupt length
	// field cannot make the scan allocate the universe. Checkpoint
	// snapshots of the largest admissible machines fit comfortably.
	maxRecordData = 1 << 30
	// maxKeptFrame bounds the frame buffer an open segment keeps for
	// reuse: result lines and small checkpoints fit, large snapshots
	// are framed in a buffer of their own.
	maxKeptFrame = 16 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// OpenFileStore opens (creating if needed) a store rooted at dir.
// Existing segments are not scanned here — each is recovered lazily on
// first use, so opening a store with thousands of finished segments
// stays cheap.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %v", err)
	}
	return &FileStore{dir: dir, segs: map[string]*segment{}}, nil
}

// Dir returns the store's root directory.
func (s *FileStore) Dir() string { return s.dir }

// validJob guards the job-name-to-filename mapping: job ids are also
// client-supplied resume tokens, so they must not traverse paths.
func validJob(job string) error {
	if job == "" || len(job) > 128 {
		return fmt.Errorf("durable: invalid job name %q", job)
	}
	for _, r := range job {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("durable: invalid job name %q", job)
		}
	}
	if strings.HasPrefix(job, ".") {
		return fmt.Errorf("durable: invalid job name %q", job)
	}
	return nil
}

// segment is one open job log: the file plus its logical size (the end
// of the last valid record — anything beyond is a truncated torn tail
// or not yet written).
type segment struct {
	mu    sync.Mutex
	f     *os.File
	size  int64
	frame []byte // Append's reused frame buffer, guarded by mu
}

// seg returns the job's open segment, recovering an existing file or
// creating a fresh one (create=false returns nil for a job with no
// segment on disk). The job name is validated only when a segment is
// opened: every name in segs passed that check already.
func (s *FileStore) seg(job string, create bool) (*segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sg := s.segs[job]; sg != nil {
		return sg, nil
	}
	if err := validJob(job); err != nil {
		return nil, err
	}
	path := filepath.Join(s.dir, job+segSuffix)
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		if os.IsNotExist(err) && !create {
			return nil, nil
		}
		return nil, fmt.Errorf("durable: %v", err)
	}
	sg, err := recoverSegment(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.segs[job] = sg
	return sg, nil
}

// recoverSegment scans a segment from the top, validating the magic
// and every record frame, and truncates the file at the first invalid
// byte — the torn tail of a crashed append. A new (empty) file gets
// its magic written and synced.
func recoverSegment(f *os.File) (*segment, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("durable: %v", err)
	}
	if st.Size() < int64(len(segMagic)) {
		// Empty or torn-before-magic: (re)initialize.
		if err := f.Truncate(0); err != nil {
			return nil, fmt.Errorf("durable: %v", err)
		}
		if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
			return nil, fmt.Errorf("durable: %v", err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("durable: %v", err)
		}
		return &segment{f: f, size: int64(len(segMagic))}, nil
	}
	var magic [len(segMagic)]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, fmt.Errorf("durable: %v", err)
	}
	if string(magic[:]) != segMagic {
		return nil, fmt.Errorf("durable: %s is not a segment file", f.Name())
	}
	size := int64(len(segMagic))
	var head [frameHead]byte
	for {
		if _, err := f.ReadAt(head[:], size); err != nil {
			break // short frame header: torn tail
		}
		n := int64(binary.LittleEndian.Uint32(head[0:4]))
		crc := binary.LittleEndian.Uint32(head[4:8])
		if n < payloadHead || n > payloadHead+maxRecordData || size+frameHead+n > st.Size() {
			break // absurd or past-EOF length: torn tail
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, size+frameHead); err != nil {
			break
		}
		if crc32.Checksum(payload, crcTable) != crc {
			break // corrupt record: torn tail
		}
		size += frameHead + n
	}
	if size < st.Size() {
		if err := f.Truncate(size); err != nil {
			return nil, fmt.Errorf("durable: %v", err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("durable: %v", err)
		}
	}
	return &segment{f: f, size: size}, nil
}

// Append implements Store: frame, write, fsync, then publish the new
// size. A reader never sees a record before it is durable.
func (s *FileStore) Append(job string, rec Record) error {
	sg, err := s.seg(job, true)
	if err != nil {
		return err
	}
	if len(rec.Data) > maxRecordData {
		return fmt.Errorf("durable: record data %d bytes exceeds the %d limit", len(rec.Data), maxRecordData)
	}
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if sg.f == nil {
		return fmt.Errorf("durable: job %s was dropped", job)
	}
	// One frame buffer per segment, reused by every record up to
	// maxKeptFrame bytes (appends of one job are serialized by sg.mu
	// anyway); a larger record, a big checkpoint, gets a frame of its
	// own, so an open segment never keeps one alive.
	n := frameHead + payloadHead + len(rec.Data)
	frame := sg.frame
	if cap(frame) < n {
		frame = make([]byte, n)
		if n <= maxKeptFrame {
			sg.frame = frame
		}
	}
	frame = frame[:n]
	payload := frame[frameHead:]
	payload[0] = byte(rec.Kind)
	binary.LittleEndian.PutUint64(payload[1:], uint64(rec.Run))
	binary.LittleEndian.PutUint64(payload[9:], uint64(rec.Cycle))
	copy(payload[payloadHead:], rec.Data)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	if _, err := sg.f.WriteAt(frame, sg.size); err != nil {
		return fmt.Errorf("durable: %v", err)
	}
	if err := sg.f.Sync(); err != nil {
		return fmt.Errorf("durable: %v", err)
	}
	sg.size += int64(len(frame))
	return nil
}

// Jobs implements Store: every segment file in the directory.
func (s *FileStore) Jobs() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %v", err)
	}
	var jobs []string
	for _, e := range ents {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasSuffix(name, segSuffix) {
			jobs = append(jobs, strings.TrimSuffix(name, segSuffix))
		}
	}
	return jobs, nil
}

// Replay implements Store. The logical size is read once, so records
// appended during the replay are left for a later one; reads happen
// without the segment lock (the file is append-only past the snapshot
// point), so a slow consumer never stalls appends.
func (s *FileStore) Replay(job string, fn func(Record) error) error {
	sg, err := s.seg(job, false)
	if err != nil || sg == nil {
		return err
	}
	sg.mu.Lock()
	end := sg.size
	f := sg.f
	sg.mu.Unlock()
	if f == nil {
		return nil // dropped concurrently: nothing to replay
	}
	off := int64(len(segMagic))
	var head [frameHead]byte
	for off < end {
		if _, err := f.ReadAt(head[:], off); err != nil {
			return fmt.Errorf("durable: %v", err)
		}
		n := int64(binary.LittleEndian.Uint32(head[0:4]))
		if n < payloadHead || off+frameHead+n > end {
			// Everything below end was validated when it was appended or
			// recovered; a bad length here means the file changed under us.
			return fmt.Errorf("durable: segment %s corrupted at offset %d", job, off)
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+frameHead); err != nil {
			return fmt.Errorf("durable: %v", err)
		}
		rec := Record{
			Kind:  Kind(payload[0]),
			Run:   int64(binary.LittleEndian.Uint64(payload[1:])),
			Cycle: int64(binary.LittleEndian.Uint64(payload[9:])),
			Data:  payload[payloadHead:],
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += frameHead + n
	}
	return nil
}

// Drop implements Store: close and remove the segment.
func (s *FileStore) Drop(job string) error {
	if err := validJob(job); err != nil {
		return err
	}
	s.mu.Lock()
	sg := s.segs[job]
	delete(s.segs, job)
	s.mu.Unlock()
	if sg != nil {
		sg.mu.Lock()
		if sg.f != nil {
			sg.f.Close()
			sg.f = nil
		}
		sg.mu.Unlock()
	}
	err := os.Remove(filepath.Join(s.dir, job+segSuffix))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("durable: %v", err)
	}
	return nil
}

// Close implements Store: closes every open segment.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for job, sg := range s.segs {
		sg.mu.Lock()
		if sg.f != nil {
			if err := sg.f.Close(); err != nil && first == nil {
				first = err
			}
			sg.f = nil
		}
		sg.mu.Unlock()
		delete(s.segs, job)
	}
	return first
}
