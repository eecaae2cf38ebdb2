package sim

import (
	"bufio"
	"fmt"
	"io"
)

// tracer renders the per-cycle trace the generated Pascal printed: a
// "Cycle   N" line listing every '*'-marked signal, plus "Write to" /
// "Read from" lines for memory operations whose trace bits are set.
type tracer struct {
	w      *bufio.Writer
	layout *Layout
}

func newTracer(w io.Writer, layout *Layout) *tracer {
	return &tracer{w: bufio.NewWriter(w), layout: layout}
}

func (t *tracer) cycleLine(cycle int64, vals []int64) {
	fmt.Fprintf(t.w, "Cycle %3d", cycle)
	for _, slot := range t.layout.Traced {
		fmt.Fprintf(t.w, " %s= %d", t.layout.Names[slot], vals[slot])
	}
	t.w.WriteByte('\n')
	t.w.Flush()
}

func (t *tracer) memTrace(what, name string, addr, value int64) {
	fmt.Fprintf(t.w, " %s %s at %d: %d\n", what, name, addr, value)
	t.w.Flush()
}
