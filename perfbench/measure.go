package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A run builds its inputs at least setupRepeats times and for at least
// setupBudget, capped at setupMax builds, and reports the median build
// time: a set-up of a few milliseconds is then timed often enough for its
// median to settle, and one slow build does not move it.
const (
	setupRepeats = 5
	setupBudget  = time.Second
	setupMax     = 100
)

// repeatSetup runs build repeatedly, collecting the garbage of the previous
// build first so every build starts from the same heap, and returns the
// last build's value with the median build time in seconds.
func repeatSetup[T any](build func() (T, error)) (T, float64, error) {
	var v T
	var secs []float64
	var total time.Duration
	for len(secs) < setupMax && (len(secs) < setupRepeats || total < setupBudget) {
		var zero T
		v = zero // let the collection below free the previous build
		runtime.GC()
		start := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, 0, err
		}
		d := time.Since(start)
		total += d
		secs = append(secs, d.Seconds())
	}
	return v, median(secs), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB. A kernel
// that does not report it fails the run rather than have another quantity
// stand in under the same name.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("perfbench: peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("perfbench: peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("perfbench: peak RSS: no VmHWM in /proc/self/status")
}

// memCounters is a snapshot of the runtime counters the per-layer metrics
// difference across a measured window.
type memCounters struct {
	mallocs uint64
	numGC   uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, numGC: ms.NumGC}
}

func (a memCounters) since(b memCounters) memCounters {
	return memCounters{mallocs: a.mallocs - b.mallocs, numGC: a.numGC - b.numGC}
}
