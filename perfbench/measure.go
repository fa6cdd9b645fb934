package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs, the mean of the two middle values
// for an even count.
func median[T ~int | ~int64 | ~uint64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quarterTail is the median, over the four quarters of lats in op
// order, of each quarter's q-quantile: a burst of noise from the rest
// of the machine moves one quarter, not the result.
func quarterTail(lats []time.Duration, q float64) time.Duration {
	var qs []time.Duration
	for k := range 4 {
		w := slices.Clone(lats[k*len(lats)/4 : (k+1)*len(lats)/4])
		if len(w) > 0 {
			slices.Sort(w)
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtStats is a reading of cumulative runtime/metrics counters.
type rtStats struct {
	allocs, gcs     uint64
	gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStats{
		allocs:   s[0].Value.Uint64(),
		gcs:      s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

// sub returns the growth from o to r.
func (r rtStats) sub(o rtStats) rtStats {
	return rtStats{
		allocs:   r.allocs - o.allocs,
		gcs:      r.gcs - o.gcs,
		gcCPU:    r.gcCPU - o.gcCPU,
		totalCPU: r.totalCPU - o.totalCPU,
	}
}

func (r *rtStats) add(o rtStats) {
	r.allocs += o.allocs
	r.gcs += o.gcs
	r.gcCPU += o.gcCPU
	r.totalCPU += o.totalCPU
}

// heapWatch samples the live heap until stopped and keeps each
// second's peak. The live heap changes only when a GC ends, so a few
// milliseconds between samples miss no GC cycle that matters.
type heapWatch struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peaks []uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		window := time.Now()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if time.Since(window) >= time.Second {
				h.peaks = append(h.peaks, peak)
				peak, window = 0, time.Now()
			}
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, peak)
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// done stops the sampler and returns the median of the one-second
// peaks in MB: the peak of a typical second, which unlike the run's
// single highest sample does not hinge on when the GCs happened to run.
func (h *heapWatch) done() float64 {
	return float64(median(h.end())) / (1 << 20)
}

// end stops the sampler and returns the one-second peaks in bytes.
func (h *heapWatch) end() []uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peaks
}
