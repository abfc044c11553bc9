package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB returns this process's peak resident set size in MiB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// pidCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func pidCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// pidPeakRSSMB reads a process's peak resident set size (VmHWM) in MiB.
func pidPeakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// gcCPU returns the Go runtime's cumulative GC CPU and total CPU estimates,
// in seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// procSnap is this process's CPU, GC CPU and wall clock at one instant;
// two of them bracket a measured window.
type procSnap struct {
	cpu       time.Duration
	gc, total float64
	wall      time.Time
}

func snapProc() procSnap {
	gc, total := gcCPU()
	return procSnap{cpu: selfCPU(), gc: gc, total: total, wall: time.Now()}
}

// usage returns the CPU time spent from w to end, the CPU utilisation
// over the window (CPU time over wall time × cpus) and the share of the Go
// runtime's CPU spent in GC.
func (w procSnap) usage(end procSnap, cpus int) (cpu time.Duration, util, gcShare float64) {
	cpu = end.cpu - w.cpu
	if wall := end.wall.Sub(w.wall).Seconds(); wall > 0 {
		util = cpu.Seconds() / (wall * float64(cpus))
	}
	if end.total > w.total {
		gcShare = (end.gc - w.gc) / (end.total - w.total)
	}
	return cpu, util, gcShare
}
