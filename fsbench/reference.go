package main

import "time"

// The host the benchmark runs on may be shared: its speed drifts over
// minutes and changes from one call to the next under other tenants' load,
// by far more than the changes the benchmark must show. So each timed call
// is also measured against a reference kernel timed right before and right
// after it on the same goroutine: the call's host time over the mean of the
// two reference times. A slowdown that hits both cancels; a change to the
// simulator does not, since the kernel is fixed code that calls none of it.
//
// The kernel mixes dependent integer arithmetic, a data-dependent branch
// and random read-modify-writes over a 256 KiB table, and takes about
// 18 ms. Of the kernels tried on a shared 2-vCPU host (tables of 256 KiB,
// 2 MiB and 16 MiB, an 8 MiB pointer chase, arithmetic alone), this one
// tracked the simulator's slowdowns best: over ten 40 s runs per workload
// it cut the quartile spread of the times from 9-24% to 2-11%. Larger
// tables tracked worse.

const (
	refTableWords = 1 << 15 // 256 KiB of uint64
	refIters      = 2_500_000
)

var (
	refTable = make([]uint64, refTableWords)
	refSink  uint64 // keeps the kernel's result live
)

// referenceSeconds runs the reference kernel once and returns its host
// seconds.
func referenceSeconds() float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint64
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			acc += x >> 3
		} else {
			acc ^= x
		}
		refTable[x&(refTableWords-1)] += acc
	}
	refSink += acc
	return time.Since(t0).Seconds()
}
