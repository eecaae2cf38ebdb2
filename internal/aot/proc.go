package aot

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os/exec"
	"slices"
	"time"
)

// Size sanity bounds on worker-reported frames. A worker is generated
// code, but a poisoned binary could be anything; bounded reads keep a
// confused process from wedging the host.
const (
	maxStateLen = 1 << 30
	maxStrLen   = 1 << 20
)

// Proc is one live worker subprocess. It is single-threaded from the
// host's point of view: one Run at a time, jobs pipelined over a
// persistent process so a campaign pays process start-up once per
// worker goroutine, not once per span.
type Proc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	out    *bufio.Reader
	wbuf   bytes.Buffer
	stderr bytes.Buffer
}

// StartProc launches a compiled worker binary. The process idles until
// its first job frame and exits cleanly on stdin EOF.
func StartProc(bin string) (*Proc, error) {
	p := &Proc{cmd: exec.Command(bin)}
	stdin, err := p.cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("aot: stdin pipe: %w", err)
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("aot: stdout pipe: %w", err)
	}
	p.stdin = stdin
	p.out = bufio.NewReaderSize(stdout, 1<<16)
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("aot: start worker: %w", err)
	}
	return p, nil
}

// Close shuts the worker down: EOF on stdin asks for a clean exit, and
// a stuck process is killed after a grace period.
func (p *Proc) Close() error {
	p.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		return <-done
	}
}

// Run executes one job on the worker. onCheckpoint, when non-nil, is
// invoked synchronously for every checkpoint frame, and onRun for every
// run frame, in run order, with the run's fault (nil for a clean run)
// and its final snapshot; an error from onRun ends the job with that
// error. Run returns how many runs reached onRun. If ctx is cancelled
// mid-job the process is killed and Run returns ctx's error; any
// protocol or process failure, or an onRun error, likewise returns an
// error, and in every such case the Proc must not be reused.
func (p *Proc) Run(ctx context.Context, job Job, onCheckpoint func(run int, cycle int64, state []byte), onRun func(run int, fault *RunError, state []byte) error) (int, error) {
	// Frame the job into one buffered write.
	p.wbuf.Reset()
	wu32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		p.wbuf.Write(b[:])
	}
	wu64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		p.wbuf.Write(b[:])
	}
	wu32(JobMagic)
	every := job.CheckpointEvery
	if every < 0 {
		every = 0
	}
	wu64(uint64(every))
	wu32(uint32(len(job.Targets)))
	for _, t := range job.Targets {
		wu64(uint64(t))
	}

	// Kill the worker the moment the context dies so blocked reads
	// unwind; reads then surface ctx.Err() to the caller.
	stop := context.AfterFunc(ctx, func() { p.cmd.Process.Kill() })
	defer stop()

	if _, err := p.stdin.Write(p.wbuf.Bytes()); err != nil {
		return 0, p.fail(ctx, fmt.Errorf("aot: write job: %w", err))
	}

	done, err := readJob(p.out, len(job.Targets), onCheckpoint, onRun)
	if err != nil {
		return done, p.fail(ctx, err)
	}
	return done, nil
}

// fail ends the worker, which a failed Proc never serves again, and
// maps a protocol error to ctx.Err() when the context caused it,
// attaching the worker's stderr otherwise: reaped, the process has
// nothing more to copy into it.
func (p *Proc) fail(ctx context.Context, err error) error {
	p.cmd.Process.Kill()
	p.cmd.Wait()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if s := bytes.TrimSpace(p.stderr.Bytes()); len(s) > 0 {
		return fmt.Errorf("%w; worker stderr: %s", err, s)
	}
	return err
}

// readJob reads a worker's answer to a job of n runs: checkpoint
// frames for the run in progress, one run frame per run in run order,
// and the end frame. It returns how many run frames it handed to onRun,
// never more than n, with an error for anything else.
func readJob(r *bufio.Reader, n int, onCheckpoint func(run int, cycle int64, state []byte), onRun func(run int, fault *RunError, state []byte) error) (int, error) {
	done := 0
	for {
		kind, err := ru32(r)
		if err != nil {
			return done, fmt.Errorf("aot: read frame: %w", err)
		}
		switch kind {
		case EndMagic:
			if done != n {
				return done, fmt.Errorf("aot: job ended after %d of %d runs", done, n)
			}
			return done, nil
		case CheckpointMagic:
			run, err := runIndex(r, done, n)
			if err != nil {
				return done, err
			}
			cycle, err := ru64(r)
			if err != nil {
				return done, err
			}
			st, err := rbytes(r, maxStateLen)
			if err != nil {
				return done, err
			}
			if onCheckpoint != nil {
				onCheckpoint(run, int64(cycle), st)
			}
		case RunMagic:
			run, err := runIndex(r, done, n)
			if err != nil {
				return done, err
			}
			fault, st, err := readRun(r)
			if err != nil {
				return done, err
			}
			if err := onRun(run, fault, st); err != nil {
				return done, err
			}
			done++
		default:
			return done, fmt.Errorf("aot: unexpected frame %#x", kind)
		}
	}
}

// runIndex reads a frame's run index, which must name the run in
// progress: run frames arrive in run order and checkpoints belong to
// the run not yet reported.
func runIndex(r *bufio.Reader, next, n int) (int, error) {
	run, err := ru32(r)
	if err != nil {
		return 0, err
	}
	if next >= n || run != uint32(next) {
		return 0, fmt.Errorf("aot: frame for run %d, expected run %d of %d", run, next, n)
	}
	return next, nil
}

// readRun reads the rest of a run frame after its run index: the
// fault, if any, and the final snapshot.
func readRun(r *bufio.Reader) (*RunError, []byte, error) {
	flag, err := ru32(r)
	if err != nil {
		return nil, nil, err
	}
	var fault *RunError
	switch flag {
	case 0:
	case 1:
		comp, err := rbytes(r, maxStrLen)
		if err != nil {
			return nil, nil, err
		}
		msg, err := rbytes(r, maxStrLen)
		if err != nil {
			return nil, nil, err
		}
		fault = &RunError{Component: string(comp), Msg: string(msg)}
	default:
		return nil, nil, fmt.Errorf("aot: run fault flag %d", flag)
	}
	st, err := rbytes(r, maxStateLen)
	if err != nil {
		return nil, nil, err
	}
	return fault, st, nil
}

func ru32(r *bufio.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func ru64(r *bufio.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// readChunk is the most rbytes allocates before the bytes arrive.
const readChunk = 64 << 10

// rbytes reads a length-prefixed byte field of at most max bytes. The
// buffer grows as the bytes arrive, doubling from readChunk, so a
// length the worker merely claims costs at most one chunk before the
// short read fails it.
func rbytes(r *bufio.Reader, max uint32) ([]byte, error) {
	n, err := ru32(r)
	if err != nil || n == 0 {
		return nil, err
	}
	if n > max {
		return nil, fmt.Errorf("aot: frame field of %d bytes exceeds bound %d", n, max)
	}
	b := make([]byte, 0, min(int(n), readChunk))
	for len(b) < int(n) {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(int(n)-len(b), len(b)))
		}
		k, err := io.ReadFull(r, b[len(b):min(cap(b), int(n))])
		b = b[:len(b)+k]
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}
