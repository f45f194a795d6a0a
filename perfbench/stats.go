package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailQuantile applies the reporting rule for a high percentile: want
// (e.g. 0.99) when at least ten samples lie beyond it, otherwise the
// highest quantile that still has ten samples beyond it (never below the
// median).
func tailQuantile(n int, want float64) float64 {
	if float64(n)*(1-want) >= 10 {
		return want
	}
	return math.Max(0.5, 1-10/float64(n))
}

// quantile is the nearest-rank q-quantile of the values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// heapSampler tracks the peak of live heap objects while running.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

// startHeapSampler reads the live-heap gauge every 5ms until stopped.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stopMB stops sampling and returns the peak in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.done.Wait()
	h.sample()
	return float64(h.peak) / (1 << 20)
}

// runtimeCounters is a snapshot of the runtime's cumulative allocation,
// GC and CPU counters.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// runtimeLayer reports the runtime per-layer metrics between two
// snapshots spanning work that answered checks checks.
func runtimeLayer(m map[string]float64, a, b runtimeCounters, checks int) {
	m["runtime.alloc_bytes_per_check"] = float64(b.allocBytes-a.allocBytes) / float64(max(checks, 1))
	m["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = (b.gcCPU - a.gcCPU) / cpu
	} else {
		m["runtime.gc_cpu_share"] = 0
	}
}

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
