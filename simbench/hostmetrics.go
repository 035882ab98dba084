package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"

	"ivleague/internal/stats"
)

// Go runtime metrics the benchmark reads outside its timed regions.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mLiveBytes  = "/gc/heap/live:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
)

// runtimeReader reads a fixed set of runtime metrics into a reused
// sample slice, so a read does not allocate.
type runtimeReader struct{ samples []metrics.Sample }

func newRuntimeReader() *runtimeReader {
	return &runtimeReader{samples: []metrics.Sample{
		{Name: mAllocBytes}, {Name: mLiveBytes}, {Name: mGCCPU},
	}}
}

func (r *runtimeReader) read() {
	metrics.Read(r.samples)
}

func (r *runtimeReader) allocBytes() uint64 { return r.samples[0].Value.Uint64() }

func (r *runtimeReader) gcCPUSeconds() float64 { return r.samples[2].Value.Float64() }

// liveHeap forces a collection and returns the bytes it found live. The
// caller keeps what it measures reachable across the call.
func (r *runtimeReader) liveHeap() uint64 {
	runtime.GC()
	r.read()
	return r.samples[1].Value.Uint64()
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// cpuTime returns the CPU time of the calling OS thread, to the
// nanosecond; main locks the benchmark's goroutine to its thread. Every
// timing reads it instead of the wall clock: on a shared virtual machine
// it leaves out the time the hypervisor runs other guests (steal). In a
// one-minute probe on a 2-vCPU VM, one repeated cell's wall-clock time
// varied with a coefficient of variation of 0.17, its CPU time 0.05. The
// simulator is single-threaded, so on an unshared host the two agree; GC
// work on other threads is not counted here but shows in alloc_mb and
// go.gc_cpu_s.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	// clock_gettime with a valid clock and pointer cannot fail.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// timedCall runs fn, returning the host CPU time it took and the heap
// bytes it allocated. The allocation counter is read outside the timing.
func (r *runtimeReader) timedCall(fn func()) (time.Duration, uint64) {
	r.read()
	a0 := r.allocBytes()
	t0 := cpuTime()
	fn()
	d := cpuTime() - t0
	r.read()
	return d, r.allocBytes() - a0
}

// median is the 50th percentile, the mean of the middle two of an even count.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }
