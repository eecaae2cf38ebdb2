package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The hosts this benchmark runs on are shared virtual machines, and the
// hypervisor takes the virtual CPUs away for whole scheduler slices:
// during one ten-pass run on the 2-vCPU box it was calibrated on, a pass
// of identical work took between 2.3 s and 5.0 s of wall time while the
// CPU time the process was charged stayed within 6 % — and in every
// pass, wall = (process CPU + /proc/stat steal) / 2 to within 3 %.
// Stolen time is the one disturbance the guest can measure exactly, so
// each timed interval is scaled by the share of the CPU time it asked
// for that it was granted (README.md, "Noise traps", 2).

// hostMark is a point in time on three clocks: the wall, the CPU time
// this process has been charged, and the time the hypervisor has
// withheld from the machine's runnable CPUs.
type hostMark struct {
	at         time.Time
	cpu, steal time.Duration
}

func markHost() hostMark {
	m := hostMark{at: time.Now(), steal: stolen()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		m.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return m
}

// stolen is the steal column of /proc/stat's first line, in its 10 ms
// ticks; 0 where there is no such file or column.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// since returns the wall time since the mark and the share of the CPU
// time asked for since then that was granted: C / (C + S), with C the
// process's CPU time and S the machine's stolen time. wall × granted is
// what the interval takes with nothing stolen, provided the process is
// the machine's only load and asks for about the same number of CPUs
// throughout (both hold for every pass here: the load is CPU-bound on
// both pinned cores). Stolen time the process did not ask for, because
// it was waiting, is not subtracted twice: with S/(C+S) of the demand
// stolen, wall − S/parallelism = wall × C/(C+S).
func (m hostMark) since() (wall time.Duration, granted float64) {
	now := markHost()
	wall = now.at.Sub(m.at)
	c, s := float64(now.cpu-m.cpu), float64(now.steal-m.steal)
	if c <= 0 || s <= 0 {
		return wall, 1
	}
	return wall, c / (c + s)
}
