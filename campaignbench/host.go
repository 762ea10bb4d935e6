package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// passHost is the host's accounting of one pass.
type passHost struct {
	// peakRSSMB is the resident-set peak during the pass.
	peakRSSMB float64
	// cpuS is the process's CPU time (user + system, every thread).
	cpuS float64
	// stealPct is the share of the machine's CPU time the hypervisor gave
	// to other guests while the pass ran.
	stealPct float64
}

// measurePass runs one pass under the host's accounting. It collects the
// heap first, so every pass starts from the same state, and resets the
// kernel's resident-set high-water mark to the current RSS (Linux
// /proc/self/clear_refs "5"), so the peak covers the pass alone. Where the
// reset is unavailable the peak is the process's so far.
func measurePass(pass func() error) (passHost, error) {
	runtime.GC()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
	cpu0 := cpuSeconds()
	steal0, total0 := cpuTicks()
	if err := pass(); err != nil {
		return passHost{}, err
	}
	h := passHost{peakRSSMB: peakRSSMB(), cpuS: cpuSeconds() - cpu0}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		h.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	return h, nil
}

// cpuSeconds is the process's CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 {
		return (time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond).Seconds()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuTicks reads the machine's steal and total CPU ticks from /proc/stat
// (zeros where it is unavailable).
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM),
// falling back to getrusage's maxrss.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(raw, []byte("\n")) {
			if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
				if f := bytes.Fields(v); len(f) > 0 {
					if kb, err := strconv.ParseFloat(string(f[0]), 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
