package main

import (
	"container/heap"
	"math/rand/v2"
)

// refWork is a fixed amount of host work built from the standard library
// only, shaped like the simulator's hot paths: a binary heap of timestamped
// events (boxed on every push, so it allocates and keeps the collector
// busy), a map-indexed pool of 4 KiB frames touched at random, and struct
// copies. No change to the simulator can move its cost; only the speed of
// the host can, which is what the end-to-end timings are divided by.
func refWork() uint64 {
	const (
		steps   = 1 << 18
		pending = 1024
		frames  = 4096
	)
	rng := rand.New(rand.NewPCG(1, 2))
	h := &refHeap{}
	pool := make(map[uint64][]byte, frames)
	var now, sum uint64
	for i := uint64(0); i < steps; i++ {
		heap.Push(h, refEvent{at: now + 1 + rng.Uint64N(1000), seq: i})
		if h.Len() > pending {
			e := heap.Pop(h).(refEvent)
			now = e.at
			sum += e.seq
		}
		k := rng.Uint64N(frames)
		f, ok := pool[k]
		if !ok {
			f = make([]byte, 4096)
			pool[k] = f
		}
		f[i%4096]++
		sum += uint64(f[(i*7)%4096])
	}
	return sum
}

// refSink keeps refWork's result live so the compiler cannot drop it.
var refSink uint64

type refEvent struct {
	at, seq uint64
	pad     [6]uint64 // a request-sized payload, copied on every move
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
