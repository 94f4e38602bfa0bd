package main

import (
	"fmt"
	"runtime"
	"time"
)

// Machine-speed normalisation. On a shared host the throughput of the
// same code swings by up to 2× within minutes as other tenants load the
// machine, far more than the changes the benchmark must resolve. So every
// run also times a fixed reference kernel, which depends on nothing in
// adaptmr, and reports each host-time metric as it would read on a
// machine where the kernel takes kernelNominal:
//
//	reported = measured × kernelNominal / median(kernel time in this run)
//
// The factor is printed with the results. Simulated times, counts,
// allocations and memory are never scaled.

// kernelNominal is the reference machine's kernel time.
const kernelNominal = 10 * time.Millisecond

// kernelEvents is the kernel's fixed amount of work.
const kernelEvents = 60000

type kernelEvent struct {
	at int64
	id int32
}

type kernelObj struct {
	at, id int64
	next   *kernelObj
}

// kernelSink keeps the kernel's result observable.
var kernelSink int64

// kernel runs a small discrete-event loop of the simulator's kind — a
// binary-heap calendar, a map update and one small allocation per event,
// with a ring of live objects for the collector to trace — and returns
// its host time.
func kernel() time.Duration {
	start := time.Now()
	var heap []kernelEvent
	push := func(e kernelEvent) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() kernelEvent {
		top := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && heap[r].at < heap[l].at {
				l = r
			}
			if heap[i].at <= heap[l].at {
				break
			}
			heap[i], heap[l] = heap[l], heap[i]
			i = l
		}
		return top
	}
	x := uint64(12345)
	rnd := func() int64 {
		x = x*6364136223846793005 + 1442695040888963407
		return int64(x >> 33)
	}
	for i := 0; i < 1024; i++ {
		push(kernelEvent{at: rnd() % 1000000, id: int32(i)})
	}
	sums := make(map[int32]int64, 1024)
	ring := make([]*kernelObj, 4096)
	for i := 0; i < kernelEvents; i++ {
		e := pop()
		sums[e.id] += e.at
		o := &kernelObj{at: e.at, id: int64(e.id), next: ring[(i+1)%len(ring)]}
		ring[i%len(ring)] = o
		push(kernelEvent{at: e.at + rnd()%100000, id: e.id})
	}
	kernelSink += int64(len(sums)) + ring[0].at
	return time.Since(start)
}

// speed collects a run's kernel timings.
type speed struct{ samples []float64 }

// sample times the kernel once, from a freshly collected heap so that
// garbage left by earlier work is not charged to it, and returns the time
// in seconds.
func (s *speed) sample() float64 {
	runtime.GC()
	k := kernel().Seconds()
	s.samples = append(s.samples, k)
	return k
}

// factor is what a measured host time is multiplied by: kernelNominal
// over the run's median kernel time.
func (s *speed) factor() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return kernelNominal.Seconds() / median(s.samples)
}

// note describes the normalisation for the run's table.
func (s *speed) note() string {
	return fmt.Sprintf("host times scaled for machine speed: median factor %.4f (reference kernel median %.3f ms over %d samples, nominal %v)",
		s.factor(), 1000*median(s.samples), len(s.samples), kernelNominal)
}
