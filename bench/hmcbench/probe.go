package main

import (
	"sync"
	"time"

	"hmcsim/bench/internal/report"
)

// The host-speed probe. On a shared host, other tenants slow this
// process by up to half for stretches of a fraction of a second to
// minutes, and a 10 s run can fall wholly inside or outside one. A
// fixed loop of four independent xorshift chains slows by the same
// factor as the simulator: over five minutes of alternating probes and
// gups-spread reps on the 2-CPU Xeon host the baseline was measured on,
// both took 1.5 times longer in the slow stretches, and the median rep
// of 10 s windows spread 26 % (interquartile range over median) raw but
// 2.2 % once each rep was divided by the mean of the probes taken right
// before and after it. A loop that chases pointers through 4 MB, or one
// that drives a heap of events over a 2 MB table, tracked the slow
// stretches worse (7 % and 3 %, with wider outliers).
//
// The end-to-end times are therefore scaled to the reference host speed:
// each measured interval is multiplied by probeRef over the median of
// the probes around it (see meter). On an uncontended host the scaled
// time equals the measured one. The probe is benchmark code, not
// simulator code, so no change to the simulator moves it.
const (
	probeIters = 1 << 20
	// probeRef is the probe's time on an otherwise idle core of the
	// baseline host.
	probeRef = 3.2e-3
)

// probeSink keeps the compiler from discarding the probe's work.
var probeSink uint64

// probeOnce runs the loop once and returns its wall seconds.
func probeOnce() float64 {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < probeIters; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		c ^= c << 13
		c ^= c >> 7
		c ^= c << 17
		d ^= d << 13
		d ^= d >> 7
		d ^= d << 17
	}
	el := time.Since(t0).Seconds()
	probeSink += a ^ b ^ c ^ d
	return el
}

// probe runs the loop on procs goroutines at once, one per processor the
// workload uses, and returns the time one loop takes at their mean speed:
// the harmonic mean of their wall seconds. Workers that share a queue of
// work (paper-quick's sweep) finish it at the sum of their speeds, so
// with one processor 1.5 times slower than the other, the arithmetic
// mean would overstate the slowdown by 4 %.
func probe(procs int) float64 {
	if procs <= 1 {
		return probeOnce()
	}
	secs := make([]float64, procs)
	var wg sync.WaitGroup
	for k := range secs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			secs[k] = probeOnce()
		}()
	}
	wg.Wait()
	var speed float64
	for _, s := range secs {
		speed += 1 / s
	}
	return float64(procs) / speed
}

// meter times a rep or a set-up, and scales it by probeRef over the
// median of the probes taken right before it, right after it, and
// between its segments. A workload whose rep lasts seconds splits it
// into segments (paper-quick: one per runner) so that more probes sample
// the host's speed across it. One probe is a 3 ms sample of a speed that
// also varies over milliseconds; scaling each runner by the two probes
// around it alone spread paper-quick's median of three reps 11 % within
// one process, against 2.6 % with the median of all fifteen. Probing is
// outside every segment.
type meter struct {
	procs  int
	last   float64 // the latest probe's seconds
	t0     time.Time
	c0     float64
	probes []float64 // every probe since the caller last cleared them
	around []float64 // the probes around the open interval's segments

	// The interval's raw wall and CPU seconds and, once it stops, the
	// same scaled to the reference host speed.
	wall, cpu             float64
	scaledWall, scaledCPU float64
}

func newMeter(procs int) *meter {
	m := &meter{procs: procs}
	m.last = probe(procs)
	m.probes = append(m.probes, m.last)
	return m
}

// start resets the totals and opens the interval's first segment.
func (m *meter) start() {
	m.wall, m.cpu, m.scaledWall, m.scaledCPU = 0, 0, 0, 0
	m.around = append(m.around[:0], m.last)
	m.open()
}

func (m *meter) open() { m.t0, m.c0 = time.Now(), cpuSeconds() }

// close ends the open segment, adds its times, and probes.
func (m *meter) close() {
	m.wall += time.Since(m.t0).Seconds()
	m.cpu += cpuSeconds() - m.c0
	m.last = probe(m.procs)
	m.probes = append(m.probes, m.last)
	m.around = append(m.around, m.last)
}

// split ends the open segment and opens the next.
func (m *meter) split() {
	m.close()
	m.open()
}

// stop ends the interval and scales its times.
func (m *meter) stop() {
	m.close()
	scale := probeRef / report.Median(m.around)
	m.scaledWall, m.scaledCPU = m.wall*scale, m.cpu*scale
}
