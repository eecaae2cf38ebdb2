// Package leakcheck is the e2e suites' shared goroutine bound: a test
// binary that leaves goroutines behind fails, with their stacks.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// grace is how long goroutines get to wind down once the tests (and
// their cleanups, which close every server) have finished: detached
// merges, background completions and probe loops end on their own,
// not synchronously with Close.
const grace = 5 * time.Second

// Main runs a package's tests from its TestMain and then fails the
// run if more goroutines are alive than before it, once the grace
// period is over. The dump names, for each goroutine, the function
// that started it.
func Main(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.fuzz").Value.String() != "" {
		os.Exit(m.Run()) // the fuzzing coordinator keeps goroutines of its own
	}
	before := runtime.NumGoroutine()
	code := m.Run()
	for deadline := time.Now().Add(grace); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests; all stacks:\n\n%s\n", n-before, buf[:runtime.Stack(buf, true)])
		code = 1
	}
	os.Exit(code)
}
