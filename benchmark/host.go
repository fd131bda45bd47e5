package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// This file reads what the host says about the run: CPU time stolen by
// the hypervisor, CPU time and memory of processes, and a fixed spin loop
// whose speed should not change between the start and the end of a run.

// clockTick is the kernel's USER_HZ; /proc reports CPU times in these
// ticks. It is 100 on every Linux the benchmark targets.
const clockTick = 10 * time.Millisecond

// cpuTimes is one reading of the aggregate "cpu" line of /proc/stat.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat first line %q", line)
	}
	var ct cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
		// Fields 9 and 10 (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			ct.total += v
		}
		if i == 7 {
			ct.steal = v
		}
	}
	return ct, nil
}

// procCPU returns the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	_, rest, ok := strings.Cut(string(data), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected CPU fields in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procStatusMiB reads one "Vm…: N kB" line of /proc/<pid>/status.
func procStatusMiB(pid int, key string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ":")
		if !ok || name != key {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(val), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/status %s: %w", pid, key, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// spinSink keeps the calibration loop's result alive.
var spinSink uint64

// calibrate returns the best of five laps of a fixed spin loop. The loop
// does the same cache-resident work every time, so a change between two
// readings means the host, not the program, changed. It runs on one CPU
// and leaves the others to whatever the runtime still has to tidy up.
func calibrate() time.Duration {
	const steps = 10_000_000
	best := time.Duration(1 << 62)
	x := spinSink + 1
	for lap := 0; lap < 5; lap++ {
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		best = min(best, time.Since(t0))
	}
	spinSink = x
	return best
}

// sentinel brackets a run with host readings. A run is suspect when the
// hypervisor stole a visible share of the CPU or the calibration loop ran
// at a different speed at the end than at the start: its timings then
// describe the neighbours as much as the program.
type sentinel struct {
	cpu0   cpuTimes
	calib0 time.Duration
	self0  time.Duration
	wall0  time.Time
}

const (
	suspectStealPct   = 2.0
	suspectCalibDrift = 0.10
)

func startSentinel() (*sentinel, error) {
	cpu, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	self, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	return &sentinel{cpu0: cpu, calib0: calibrate(), self0: self, wall0: time.Now()}, nil
}

// hostReport is what the sentinel saw over the run.
type hostReport struct {
	stealPct   float64 // share of all CPU time stolen by the hypervisor
	calibDrift float64 // |end − start| ÷ start of the calibration loop
	loadgenCPU float64 // share of the host's CPU time used by this process
	suspect    bool
	suspectWhy string
}

func (s *sentinel) finish() (hostReport, error) {
	self, err := procCPU(os.Getpid())
	if err != nil {
		return hostReport{}, err
	}
	wall := time.Since(s.wall0)
	calib1 := calibrate()
	cpu, err := readCPUTimes()
	if err != nil {
		return hostReport{}, err
	}
	var r hostReport
	if dt := cpu.total - s.cpu0.total; dt > 0 {
		r.stealPct = 100 * float64(cpu.steal-s.cpu0.steal) / float64(dt)
	}
	r.calibDrift = float64(calib1-s.calib0) / float64(s.calib0)
	if r.calibDrift < 0 {
		r.calibDrift = -r.calibDrift
	}
	r.loadgenCPU = float64(self-s.self0) / (float64(wall) * float64(runtime.NumCPU()))
	switch {
	case r.stealPct > suspectStealPct:
		r.suspect, r.suspectWhy = true, fmt.Sprintf("hypervisor stole %.1f%% of CPU time", r.stealPct)
	case r.calibDrift > suspectCalibDrift:
		r.suspect, r.suspectWhy = true, fmt.Sprintf("calibration loop drifted %.0f%%", 100*r.calibDrift)
	}
	return r, nil
}
