package main

import (
	"runtime"
	"time"
)

// Host-speed calibration.
//
// A shared host's speed drifts with other tenants' load: on the 2-vCPU VM
// this benchmark was tuned on, the same simulation ran 35 % faster a few
// minutes later, and every layer slowed and sped up together. So each
// end-to-end timing is divided by the time of a fixed kernel run right
// before and after it, and multiplied by calRef: it reads as the time on
// a host that runs the kernel in calRef seconds. The kernel is this
// file's own code and never calls the simulator, so a change to the
// simulator moves the normalised timings exactly as it moves the raw ones.
const calRef = 0.1

// The kernel is a dependent chain of integer operations (bound by the
// core's speed, as most of the simulator's time is) followed by a
// sequential fill of a table (bound by memory bandwidth, like set-up).
// On the 2-vCPU VM it was chosen on, the simulator's time divided by the
// chain's time drifted least over twenty minutes of host drift: a third
// as much as when divided by a pointer chase through a 32 MiB table.
// The table is allocated once and the kernel allocates nothing
// afterwards, so it neither triggers nor waits for GC.
const (
	calSteps   = 1 << 25
	calFillLen = 1 << 22 // 32 MiB of uint64
)

var (
	calFill []uint64
	calSink uint64
)

// calibrate returns the kernel's wall time in seconds. It collects
// garbage first so no GC work from the measured code overlaps it.
func calibrate() float64 {
	if calFill == nil {
		calFill = make([]uint64, calFillLen)
	}
	runtime.GC()
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	for i := range calFill {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calFill[i] = x
	}
	calSink += x
	return time.Since(t0).Seconds()
}

// calibrator runs the kernel between measurements and keeps its times.
type calibrator struct {
	last  float64
	times timing
}

// next runs the kernel and returns its time and the previous one.
func (c *calibrator) next() (before, after float64) {
	before, c.last = c.last, calibrate()
	c.times = append(c.times, c.last)
	return before, c.last
}

// report prints the kernel's times, the host-speed record of the run.
func (c *calibrator) report(r *report) {
	s := c.times.sorted()
	r.printf("calibration kernel %.4g ms median, %.4g–%.4g ms over %d runs (timings below are scaled to %.4g ms)",
		1e3*c.times.median(), 1e3*s[0], 1e3*s[len(s)-1], len(s), 1e3*calRef)
}

// calibrated holds samples of one timed quantity with the host-speed
// factor measured around each.
type calibrated struct {
	raw, norm timing
}

// add records a sample taken between two calibrations.
func (c *calibrated) add(v, calBefore, calAfter float64) {
	c.raw = append(c.raw, v)
	c.norm = append(c.norm, v*calRef/((calBefore+calAfter)/2))
}
