package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// CPU time is how this benchmark reports cost. The run time the kernel
// keeps for each thread excludes time the hypervisor stole from the
// virtual CPU, so it stays steadier on a shared host than wall-clock
// figures, which swing with the neighbours' load.

// selfCPU is the benchmark process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is a live process's CPU time so far: the sum of its threads'
// run times from /proc/<pid>/task/*/schedstat, in nanoseconds.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between Glob and ReadFile
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		total += time.Duration(ns)
	}
	if total == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	return total, nil
}

// cpuStat is the machine-wide steal and total CPU time from /proc/stat, in
// clock ticks.
type cpuStat struct{ steal, total int64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	var s cpuStat
	for i, x := range f[1:] {
		v, _ := strconv.ParseInt(x, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// stealBetween is the share of all CPU time the hypervisor stole between
// two readings.
func stealBetween(a, b cpuStat) float64 {
	if b.total == a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
