package main

import (
	"runtime"
	"syscall"
	"time"
)

// The reference kernel. CPU time leaves out what the host steals, but
// the host's other guests also change how much CPU time the same work
// costs here: a fixed kernel alone in this process moves between speed
// levels up to 2.3x apart, each held for a tenth of a second to a few
// seconds. So every timed operation runs between two runs of a fixed
// kernel of the benchmark's own, and its CPU time is scaled by how much
// slower or faster than nominal the kernel ran around it.
//
// The kernel calls no ipdelta code, so a change to the program does not
// move it. Like the program's hot paths, it hashes bytes into an
// open-addressing table and into a Go map, copies memory, and touches
// one byte in each page of a buffer the size of the workload's image,
// in scattered order, so it also meets the memory and address-
// translation costs of a working set that size. It allocates only in
// newRefKernel, and the large buffer lies outside the Go heap, so it
// leaves the program's garbage collection and heap peak alone. It is
// timed on its own thread's clock, so the collector's work on other
// threads does not count in it.
const (
	refText  = 64 << 10  // bytes hashed per kernel run
	refSlots = 1 << 16   // open-addressing table slots
	refCopy  = 512 << 10 // bytes copied per kernel run
	refPage  = 4 << 10   // stride of the scattered reads

	// The kernel's typical CPU time on the reference machine, which
	// scaled times assume: refBaseMs plus refPageMs per page read.
	refBaseMs = 1.0
	refPageMs = 25e-6

	// refTick is how often the kernel runs during an operation that
	// lasts longer than a speed level (see during).
	refTick = 100 * time.Millisecond
)

type refKernel struct {
	text     []byte
	table    []uint32
	m        map[uint32]int32
	src, dst []byte
	span     []byte  // mapped outside the Go heap; see release
	nominal  float64 // CPU ms the scaled times assume for one run
	sink     uint64
	ms       []float64 // thread CPU ms of every kernel run
}

// newRefKernel returns a kernel whose scattered reads cover span bytes.
func newRefKernel(span int) *refKernel {
	mem, err := syscall.Mmap(-1, 0, span, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err) // only an exhausted address space fails this
	}
	r := &refKernel{
		span:    mem,
		nominal: refBaseMs + float64(span/refPage)*refPageMs,
		text:    make([]byte, refText),
		table:   make([]uint32, refSlots),
		m:       make(map[uint32]int32, refText/4),
		src:     make([]byte, refCopy),
		dst:     make([]byte, refCopy),
	}
	rng := newRNG(0, 30)
	for i := range r.text {
		r.text[i] = "abcdefgh"[rng.IntN(8)]
	}
	for i := range r.src {
		r.src[i] = byte(rng.Uint32())
	}
	for i := range r.span {
		r.span[i] = byte(i)
	}
	return r
}

// release unmaps the kernel's large buffer.
func (r *refKernel) release() {
	if err := syscall.Munmap(r.span); err != nil {
		panic(err) // only a bug hands Munmap a bad mapping
	}
}

// run times one pass of the kernel on its OS thread's CPU clock and
// returns that time.
func (r *refKernel) run() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPUNow()

	clear(r.table)
	mask := uint32(len(r.table) - 1)
	var h uint32
	for i, c := range r.text {
		h = h*31 + uint32(c)
		if i%4 != 0 {
			continue
		}
		for k := (h * 2654435761) & mask; ; k = (k + 1) & mask {
			if v := r.table[k]; v == 0 {
				r.table[k] = uint32(i + 1)
				break
			} else if r.text[v-1] == c {
				r.sink++
				break
			}
		}
	}

	clear(r.m)
	for i, c := range r.text {
		h = h*31 + uint32(c)
		if i%4 != 0 {
			continue
		}
		if p, ok := r.m[h&0xfffff]; ok {
			r.sink += uint64(p)
		} else {
			r.m[h&0xfffff] = int32(i)
		}
	}

	copy(r.dst, r.src)
	r.sink += uint64(r.dst[len(r.dst)-1])

	// Step k reads page k*stride mod pages. The page count is a power
	// of two, so an odd stride visits every page once; one near a third
	// of the pages makes neighbouring steps land far apart.
	pages := len(r.span) / refPage
	stride := pages/3 | 1
	for k, p := 0, 0; k < pages; k, p = k+1, (p+stride)%pages {
		r.sink += uint64(r.span[p*refPage])
	}

	d := threadCPUNow() - start
	r.ms = append(r.ms, ms(d))
	return d
}

// sample runs the kernel once and returns its CPU ms. Workloads sample
// it right before and right after each timed operation, outside the
// operation's CPU interval.
func (r *refKernel) sample() float64 {
	return ms(r.run())
}

// timed runs fn and returns its process CPU time, in ms scaled to
// nominal speed, and unscaled. The kernel runs right before fn, every
// refTick during it (see during), and right after it; the scale is the
// mean of those runs.
func (r *refKernel) timed(fn func()) (float64, time.Duration) {
	refs := []float64{r.sample()}
	cpu, during := r.during(fn)
	refs = append(append(refs, during...), r.sample())
	return r.scaled(cpu, mean(refs)), cpu
}

// during runs fn, which must not use r, and meanwhile runs the kernel
// every refTick on another goroutine. It returns fn's process CPU time
// with the kernel's own taken out, and the CPU ms of each kernel run.
// An operation that spans several speed levels is scaled by the kernel
// runs made across it, not just at its ends.
func (r *refKernel) during(fn func()) (time.Duration, []float64) {
	stop, done := make(chan struct{}), make(chan struct{})
	var own time.Duration
	var runs []float64
	start := cpuNow()
	go func() {
		defer close(done)
		tick := time.NewTicker(refTick)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				d := r.run()
				own += d
				runs = append(runs, ms(d))
			}
		}
	}()
	fn()
	close(stop)
	<-done
	return cpuNow() - start - own, runs
}

// scaled returns cpu in ms at nominal speed, given the mean CPU ms of
// the kernel runs around it.
func (r *refKernel) scaled(cpu time.Duration, refMs float64) float64 {
	return ms(cpu) * r.nominal / refMs
}
