package main

import (
	"runtime"
	"syscall"
	"time"
)

// snap is one reading of the clocks and counters a timed region is
// charged against: wall clock, process CPU (user+sys) and the Go heap's
// allocation totals.
type snap struct {
	t       time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// usage is the difference between two snaps.
type usage struct {
	wall, cpu time.Duration
	mallocs   uint64
	bytes     uint64
}

func (u *usage) add(o usage) {
	u.wall += o.wall
	u.cpu += o.cpu
	u.mallocs += o.mallocs
	u.bytes += o.bytes
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// takeSnap reads the wall clock last, so that a region opened with it
// does not pay for reading the counters.
func takeSnap() snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ru := rusage()
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return snap{t: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// since returns what the process used between s0 and now; it reads the
// wall clock first, for the same reason takeSnap reads it last.
func since(s0 snap) usage {
	now := time.Now()
	s1 := takeSnap()
	return usage{
		wall:    now.Sub(s0.t),
		cpu:     s1.cpu - s0.cpu,
		mallocs: s1.mallocs - s0.mallocs,
		bytes:   s1.bytes - s0.bytes,
	}
}

// peakRSSMB is the high-water resident set of this process (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024
}

// mbPerS converts bytes over a duration to MB/s (1 MB = 1e6 bytes).
func mbPerS(bytes float64, d time.Duration) float64 {
	return bytes / 1e6 / d.Seconds()
}
