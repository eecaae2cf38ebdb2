// Package vcd dumps simulation traces in the Value Change Dump format
// so runs can be inspected in standard waveform viewers — the modern
// counterpart of the thesis' per-cycle trace listings (§1.4's "view
// the internal states of a microprocessor"). One VCD time unit is one
// simulation cycle; signal values are sampled at the trace point
// (combinational outputs fresh, memory output registers pre-commit),
// matching the textual trace exactly.
package vcd

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Dumper writes a VCD stream for a fixed set of signals.
type Dumper struct {
	w       *bufio.Writer
	names   []string
	ids     []string
	widths  []int
	last    []int64
	started bool
	err     error
}

// Attach creates a dumper for the named signals (default: the spec's
// traced signals) and registers it as an observer on m. Call Close
// after the run to flush.
func Attach(m *sim.Machine, w io.Writer, signals []string) (*Dumper, error) {
	layout := m.Layout()
	if signals == nil {
		for _, slot := range layout.Traced {
			signals = append(signals, layout.Names[slot])
		}
	}
	if len(signals) == 0 {
		return nil, fmt.Errorf("vcd: no signals to dump (mark names with '*' or pass them explicitly)")
	}
	d := &Dumper{w: bufio.NewWriter(w)}
	for i, name := range signals {
		slot, ok := layout.Slot(name)
		if !ok {
			return nil, fmt.Errorf("vcd: unknown signal %q", name)
		}
		d.names = append(d.names, name)
		d.ids = append(d.ids, idFor(i))
		d.widths = append(d.widths, int(layout.Widths[slot]))
	}
	d.last = make([]int64, len(d.names))
	m.Observe(d.sample)
	return d, nil
}

// idFor builds a short VCD identifier from printable characters.
func idFor(i int) string {
	const base = 94 // printable ASCII from '!'
	id := ""
	for {
		id = string(rune('!'+i%base)) + id
		i /= base
		if i == 0 {
			return id
		}
		i--
	}
}

func (d *Dumper) header(m *sim.Machine) {
	fmt.Fprintf(d.w, "$version ASIM II reproduction (%s backend) $end\n", m.Backend())
	fmt.Fprintf(d.w, "$timescale 1ns $end\n")
	fmt.Fprintf(d.w, "$scope module %s $end\n", "asim")
	for i, name := range d.names {
		fmt.Fprintf(d.w, "$var wire %d %s %s $end\n", d.widths[i], d.ids[i], name)
	}
	fmt.Fprintf(d.w, "$upscope $end\n$enddefinitions $end\n")
}

func (d *Dumper) sample(m *sim.Machine) {
	if d.err != nil {
		return
	}
	if !d.started {
		d.header(m)
		d.started = true
		fmt.Fprintf(d.w, "#%d\n", m.Cycle())
		for i, name := range d.names {
			v := m.Value(name)
			d.last[i] = v
			d.emit(i, v)
		}
		return
	}
	wroteTime := false
	for i, name := range d.names {
		v := m.Value(name)
		if v == d.last[i] {
			continue
		}
		if !wroteTime {
			fmt.Fprintf(d.w, "#%d\n", m.Cycle())
			wroteTime = true
		}
		d.last[i] = v
		d.emit(i, v)
	}
}

func (d *Dumper) emit(i int, v int64) {
	if d.widths[i] == 1 {
		fmt.Fprintf(d.w, "%d%s\n", v&1, d.ids[i])
		return
	}
	fmt.Fprintf(d.w, "b%b %s\n", uint32(v), d.ids[i])
}

// Close flushes the stream.
func (d *Dumper) Close() error {
	if err := d.w.Flush(); err != nil {
		return err
	}
	return d.err
}
