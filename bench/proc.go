package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSnap is the process state read at both edges of a measured window.
type procSnap struct {
	wall       time.Time
	user, sys  float64 // CPU seconds, getrusage
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64 // CPU seconds spent in the collector
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// snapProc reads the process counters. ReadMemStats stops the world, so it
// is only called at window edges, never inside a window.
func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	ru := rusage()
	s := procSnap{
		wall:       time.Now(),
		user:       tvSeconds(ru.Utime),
		sys:        tvSeconds(ru.Stime),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gc[0].Value.Float64()
	}
	return s
}

// procDelta is what a window cost the process.
type procDelta struct {
	wallS, userS, sysS float64
	mallocs            uint64
	allocBytes         uint64
	gcCycles           uint32
	gcCPUS             float64
}

func (d procDelta) cpuS() float64 { return d.userS + d.sysS }

func (a procSnap) until(b procSnap) procDelta {
	return procDelta{
		wallS:      b.wall.Sub(a.wall).Seconds(),
		userS:      b.user - a.user,
		sysS:       b.sys - a.sys,
		mallocs:    b.mallocs - a.mallocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
		gcCPUS:     b.gcCPU - a.gcCPU,
	}
}

// peakRSSMB is ru_maxrss (KiB on Linux) in MB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
