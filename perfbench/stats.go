package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// cpuNow returns the CPU time the process has used so far, user and
// system time of all its threads together. The kernel charges time the
// hypervisor takes from a virtual CPU (steal) to no process, so an
// interval on this clock does not stretch while the host runs other
// guests, as a wall-clock interval does.
func cpuNow() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPUNow returns the CPU time of the calling OS thread.
func threadCPUNow() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// cpuClock reads a Linux CPU-time clock. These clocks count nanoseconds,
// where getrusage rounds to ticks.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return time.Duration(ts.Nano())
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// mean returns the arithmetic mean of xs, which must not be empty.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler tracks the peak Go heap (bytes in live and not yet swept
// objects) while armed. It samples runtime/metrics every heapTick on its
// own goroutine, which Stop ends and waits for.
type heapSampler struct {
	armed atomic.Bool
	peak  atomic.Uint64
	stop  chan struct{}
	wg    sync.WaitGroup
}

const (
	heapMetric = "/memory/classes/heap/objects:bytes"
	heapTick   = time.Millisecond
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(heapTick)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if h.armed.Load() {
					h.observe(sample)
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(sample []metrics.Sample) {
	metrics.Read(sample)
	v := sample[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// Arm starts or pauses sampling; the timed window arms it. Arming takes
// one sample at once, so a window shorter than the tick still counts.
func (h *heapSampler) Arm(on bool) {
	if on {
		h.observe([]metrics.Sample{{Name: heapMetric}})
	}
	h.armed.Store(on)
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}
