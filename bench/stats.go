package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// percentile returns the q-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples strictly above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// printBands prints each op class's latency band and names the class
// the p50 and tail samples belong to, so a percentile sitting on a class
// boundary shows.
func printBands(p phase, tail float64) {
	byClass := map[string][]float64{}
	var names []string
	for i, c := range p.class {
		if byClass[c] == nil {
			names = append(names, c)
		}
		byClass[c] = append(byClass[c], p.lat[i])
	}
	sort.Slice(names, func(i, j int) bool { return median(byClass[names[i]]) < median(byClass[names[j]]) })
	for _, c := range names {
		xs := byClass[c]
		fmt.Printf("  class %-22s n=%-6d share=%5.1f%% p5=%8.3fms p50=%8.3fms p95=%8.3fms\n",
			c, len(xs), 100*float64(len(xs))/float64(len(p.lat)),
			percentile(xs, 5), median(xs), percentile(xs, 95))
	}
	for _, q := range []float64{50, tail} {
		fmt.Printf("  p%g falls in class %s\n", q, classAt(p, q))
	}
}

// classAt names the class of the sample at the q-th percentile rank.
func classAt(p phase, q float64) string {
	if len(p.lat) == 0 {
		return "-"
	}
	idx := make([]int, len(p.lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.lat[idx[a]] < p.lat[idx[b]] })
	return p.class[idx[int(math.Round(q/100*float64(len(idx)-1)))]]
}

// printDrift compares the p50 of the first and last tenth of the timed
// ops: per-op cost that grows during the window shows here.
func printDrift(p phase) {
	n := len(p.lat) / 10
	if n == 0 {
		return
	}
	first, last := median(p.lat[:n]), median(p.lat[len(p.lat)-n:])
	fmt.Printf("drift: first-decile p50=%.3fms last-decile p50=%.3fms (%+.1f%%)\n", first, last, 100*(last/first-1))
}

// memDelta is the runtime's allocation counters over a phase.
type memDelta struct {
	allocBytes, allocs, gcCycles uint64
	gcPause                      time.Duration
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, ms.Mallocs, uint64(ms.NumGC), time.Duration(ms.PauseTotalNs)}
}

func (a memDelta) sub(b memDelta) memDelta {
	return memDelta{a.allocBytes - b.allocBytes, a.allocs - b.allocs, a.gcCycles - b.gcCycles, a.gcPause - b.gcPause}
}

func (a memDelta) layerMetrics(m metrics, ops int) {
	n := float64(max(ops, 1))
	m.set("runtime.alloc_bytes", float64(a.allocBytes)/n, "B")
	m.set("runtime.allocs", float64(a.allocs)/n, "count")
	m.set("runtime.gc_cycles", float64(a.gcCycles)/n, "count")
	m.set("runtime.gc_pause_ms", ms(a.gcPause)/n, "ms")
}

// liveHeapMB is the heap still reachable after a full collection: the
// retained state (stores, indexes, standing buffers), independent of
// where in the GC cycle the run happened to end.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostRef times a fixed CPU kernel (median of 7 passes of SHA-256 over
// 1 MiB). It is a host-drift diagnostic: when it moves between runs,
// the machine changed, not the program.
func hostRef() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	var ts []float64
	for range 7 {
		t0 := time.Now()
		sha256.Sum256(buf)
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts)
}
