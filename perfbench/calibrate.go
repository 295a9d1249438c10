package main

import (
	"math"
	"runtime"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by 25-70% over
// tens of seconds to minutes, often for as long as a whole invocation,
// through contention that is invisible inside the VM. No statistic of raw
// times taken within one invocation can remove a slowdown that covers all
// of it. So every end-to-end time is scaled by the host's speed at the
// moment it was measured: each piece of timed work runs between two
// samples of a fixed reference loop that belongs to the benchmark, and
// its times are multiplied by the loop's nominal time over the mean of
// those two samples. No change to the program can make the loop faster,
// so a faster program lowers the scaled time exactly as it lowers the raw
// one, while a slower host raises the raw time and the loop's time alike.
//
// The loop is shaped like the simulator's hot path (a binary heap of
// timed events, neighbour distance math, scattered node updates over a
// working set larger than L2) so that contention slows both alike. It
// allocates nothing after its first call, so the collector never runs in
// it.

// refLoopNominal is the reference loop's median time on the reference
// host (a 2-vCPU Intel Xeon VM, otherwise idle). A scaled time reads as
// the seconds the work would take there.
const refLoopNominal = 0.0120

const (
	refNodes  = 1 << 15
	refEvents = 60000
)

type refEvent struct {
	at   float64
	node int32
}

type refNode struct {
	x, y  float64
	nbr   [8]int32
	count uint32
}

// hostSpeed takes the reference-loop samples between the pieces of timed
// work of one invocation.
type hostSpeed struct {
	nodes []refNode
	heap  []refEvent
	times samples // every sample, in seconds
	last  float64 // the latest sample; 0 before the first
	sink  float64
}

// around runs work between two reference-loop samples, each taken on a
// freshly collected heap, and returns the factor that scales a time
// measured in work to the reference host's speed. The sample after one
// piece of work is the sample before the next, so the collection of one
// piece's garbage also settles the heap for the next.
func (h *hostSpeed) around(work func() error) (float64, error) {
	if h.last == 0 {
		runtime.GC()
		h.sample()
	}
	before := h.last
	if err := work(); err != nil {
		return 0, err
	}
	runtime.GC()
	after := h.sample()
	return refLoopNominal / ((before + after) / 2), nil
}

// sample times one execution of the reference loop.
func (h *hostSpeed) sample() float64 {
	if h.nodes == nil {
		h.init()
	}
	start := time.Now()
	h.sink += h.loop()
	h.last = time.Since(start).Seconds()
	h.times.add(h.last)
	return h.last
}

func (h *hostSpeed) init() {
	h.nodes = make([]refNode, refNodes)
	h.heap = make([]refEvent, 0, 8192)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range h.nodes {
		h.nodes[i].x = float64(next()%10000) / 100
		h.nodes[i].y = float64(next()%10000) / 100
		for k := range h.nodes[i].nbr {
			h.nodes[i].nbr[k] = int32(next() % refNodes)
		}
	}
}

// loop runs a fixed event loop: each event visits a node, finds its
// nearest listed neighbour and schedules the next event there.
func (h *hostSpeed) loop() float64 {
	q := h.heap[:0]
	push := func(e refEvent) {
		q = append(q, e)
		for c := len(q) - 1; c > 0; {
			p := (c - 1) / 2
			if q[p].at <= q[c].at {
				break
			}
			q[p], q[c] = q[c], q[p]
			c = p
		}
	}
	pop := func() refEvent {
		top := q[0]
		last := len(q) - 1
		q[0] = q[last]
		q = q[:last]
		for c := 0; ; {
			l := 2*c + 1
			if l >= len(q) {
				break
			}
			if r := l + 1; r < len(q) && q[r].at < q[l].at {
				l = r
			}
			if q[c].at <= q[l].at {
				break
			}
			q[c], q[l] = q[l], q[c]
			c = l
		}
		return top
	}
	for i := 0; i < 4096; i++ {
		push(refEvent{at: float64(i), node: int32(i * 7 % refNodes)})
	}
	acc := 0.0
	for i := 0; i < refEvents; i++ {
		e := pop()
		nd := &h.nodes[e.node]
		best, bi := math.Inf(1), int32(0)
		for _, j := range nd.nbr {
			o := &h.nodes[j]
			if d := math.Hypot(o.x-nd.x, o.y-nd.y); d < best {
				best, bi = d, j
			}
		}
		nd.count++
		acc += best
		push(refEvent{at: e.at + 1 + best/100, node: bi})
	}
	h.heap = q
	return acc
}
