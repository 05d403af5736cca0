package main

import (
	"container/heap"
	"math"
	"runtime"
	"time"
)

// The shared host this benchmark runs on changes speed by ±15% or more over
// minutes (other tenants contend for cache and memory bandwidth; CPU time
// tracks wall time, so it is not preemption). A pass is therefore bracketed
// by runs of a fixed reference workload, and a run reports the pass's
// timing in reference seconds: each pass's measured time is scaled by
// refNominalS ÷ the mean of the reference times measured in that pass, and
// the run reports medians over passes. The reference
// uses the standard library only, so no change to the simulator moves it;
// it mimics the simulator's inner loop (a binary event heap, exponential
// draws, short per-server queues), so a slow host phase slows both alike.

// refShare is how much reference time follows a pass, as a share of the
// pass's wall time; one more reference run precedes it.
const refShare = 0.25

// refEvents is the number of events one reference run pops.
const refEvents = 650_000

// refNominalS is what one reference run takes on the canonical host
// (2 vCPUs, Intel Xeon) in a quiet phase; it only fixes the scale, so
// reported timings read as seconds on that host.
const refNominalS = 0.26

// refChecksum is the reference's deterministic result; a different value
// means the reference did different work and its timing is void.
const refChecksum = 0x37977c93ee0472ea

type refEvent struct {
	at  float64
	srv int
}

type refHeap []refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// referenceWork runs the fixed reference event loop and returns a checksum
// of what it computed.
func referenceWork() uint64 {
	x := uint64(88172645463325252)
	next := func() float64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	const servers = 64
	h := &refHeap{}
	queues := make([][]float64, servers)
	for i := 0; i < 4096; i++ {
		heap.Push(h, refEvent{at: -math.Log(1 - next()), srv: i % servers})
	}
	var sum uint64
	for i := 0; i < refEvents; i++ {
		ev := heap.Pop(h).(refEvent)
		q := append(queues[ev.srv], ev.at)
		if len(q) > 32 {
			sum = sum*31 + math.Float64bits(q[0])
			q = q[:0]
		}
		queues[ev.srv] = q
		heap.Push(h, refEvent{at: ev.at - math.Log(1-next()), srv: int(next() * servers)})
	}
	return sum
}

// referenceSeconds collects the garbage a pass left, so no program work
// overlaps the reference, then times one reference run.
func referenceSeconds() (float64, bool) {
	runtime.GC()
	t0 := time.Now()
	sum := referenceWork()
	return time.Since(t0).Seconds(), sum == refChecksum
}
