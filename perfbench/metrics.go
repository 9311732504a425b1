package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named, united number of a run.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first. The tail is the highest one, at or below a workload's design
// percentile, with at least minBeyond samples above it. A whole window
// holds enough jobs for each workload's design percentile to qualify; a
// fixed design percentile keeps the tail from switching between runs
// that happen to sit on either side of a ladder step.
var tailLadder = []float64{99, 95, 90, 75, 50}

const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// summary is a sample's median and tail, with the percentile the tail
// was read at and how many samples it rests on.
type summary struct {
	N      int
	P50    float64
	Tail   float64
	TailAt float64
	Max    float64
}

// summarize reads xs with its tail at the highest qualifying percentile.
func summarize(xs []float64) summary { return summarizeAt(xs, tailLadder[0]) }

// summarizeAt reads xs with its tail at or below the top percentile.
func summarizeAt(xs []float64, top float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = quantile(s, 0.5)
	out.Max = s[len(s)-1]
	out.Tail, out.TailAt = out.Max, 100
	for _, p := range tailLadder {
		if p > top {
			continue
		}
		rank := int(math.Ceil(p / 100 * float64(len(s))))
		if len(s)-rank >= minBeyond {
			out.Tail, out.TailAt = quantile(s, p/100), p
			break
		}
	}
	return out
}

func (s summary) String() string {
	return fmt.Sprintf("n=%d p50=%.4g p%g=%.4g (%d beyond) max=%.4g",
		s.N, s.P50, s.TailAt, s.Tail, s.N-int(math.Ceil(s.TailAt/100*float64(s.N))), s.Max)
}

// rssEvery is the resident-set sampling period of a timed window.
const rssEvery = 50 * time.Millisecond

// rssPoint is one resident-set reading, at seconds into the window.
type rssPoint struct{ at, mib float64 }

// rssSampler reads the process's resident set every rssEvery from the
// start of a window until stop. A window's rss_mb is the median of the
// readings: the peak depends on whether a collection freed the last
// large output before the next one was allocated, and jumps from one
// process to the next; the median does not.
type rssSampler struct {
	stop chan struct{}
	done chan []rssPoint
}

func sampleRSS(start time.Time) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []rssPoint, 1)}
	go func() {
		tk := time.NewTicker(rssEvery)
		defer tk.Stop()
		var pts []rssPoint
		if mib, ok := residentMiB(); ok {
			pts = append(pts, rssPoint{time.Since(start).Seconds(), mib})
		}
		for {
			select {
			case <-s.stop:
				s.done <- pts
				return
			case <-tk.C:
				if mib, ok := residentMiB(); ok {
					pts = append(pts, rssPoint{time.Since(start).Seconds(), mib})
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its readings.
func (s *rssSampler) finish() []rssPoint {
	close(s.stop)
	return <-s.done
}

// residentMiB is the process's current resident set, from the second
// field of /proc/self/statm (pages).
func residentMiB() (float64, bool) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// memSample is a reading of the Go runtime's allocation and GC counters.
type memSample struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
}

var memNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readMem() memSample {
	s := make([]metrics.Sample, len(memNames))
	for i, n := range memNames {
		s[i].Name = n
	}
	metrics.Read(s)
	m := memSample{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		m.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		m.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		m.pauses = s[2].Value.Float64Histogram()
	}
	return m
}

// memLayer turns two readings bracketing a window of jobs into the
// per-job allocation, GC count and the window's p99 GC pause.
func memLayer(before, after memSample, jobs int) []metric {
	per := float64(max(jobs, 1))
	return []metric{
		{"mem.alloc_mb_per_job", "MiB", float64(after.allocBytes-before.allocBytes) / (1 << 20) / per},
		{"mem.gc_per_job", "count", float64(after.gcCycles-before.gcCycles) / per},
		{"mem.gc_pause_ms.p99", "ms", pauseP99(before.pauses, after.pauses) * 1e3},
	}
}

// pauseP99 reads the p99 of the pauses recorded between two histogram
// snapshots, as the upper edge of the bucket holding it.
func pauseP99(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	total := uint64(0)
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	seen := uint64(0)
	for i := range after.Counts {
		seen += after.Counts[i] - before.Counts[i]
		if seen >= need {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return 0
}

// ms and us convert durations for reporting.
func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// median of a small sample: set-up repetitions or per-slice values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
