package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed reference. The shared host this benchmark was written on
// changes speed by up to ~2x over tens of seconds as neighbouring load
// comes and goes, and the simulator, the CPU time it is charged and a
// plain loop all slow down together. Every host timing is therefore
// reported at reference speed: the time as measured, times refNominal,
// over the reference work's time next to the measured operation (the
// mean of the last timing before it and the first after it). Across
// repeated runs that cuts the spread of wall_s roughly in half. The
// reference is frozen benchmark code, so a change to the program under
// test cannot move it; bench.host_speed reports the factor itself.

// refNominal is the reference work's time, in seconds, on a host at
// reference speed.
const refNominal = 0.25

const (
	refOps     = 1 << 19 // heap operations per goroutine
	refSteps   = 1 << 20 // dependent loads per goroutine
	refMemBits = 24      // the load table holds 2^24 uint32s (64 MiB)
)

var (
	refSink  atomic.Uint64
	refTable []uint32 // filled on first use
)

// refWork runs the reference work on GOMAXPROCS goroutines, the
// parallelism the fleet engine uses, and returns its wall time. Each
// goroutine runs a small event loop that stays in cache, then a chain
// of dependent loads that misses it: the fleet engine does both.
func refWork() time.Duration {
	if refTable == nil {
		refTable = make([]uint32, 1<<refMemBits)
		x := uint64(0x9e3779b97f4a7c15)
		for i := range refTable {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			refTable[i] = uint32(x)
		}
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			refSink.Add(refLoop(seed) + refChase(uint32(seed)))
		}(uint64(g) + 1)
	}
	wg.Wait()
	return time.Since(t0)
}

// refChase follows refSteps dependent loads through refTable. Adding
// the step count keeps the walk out of short cycles.
func refChase(i uint32) uint64 {
	const mask = 1<<refMemBits - 1
	var sum uint64
	for k := uint32(0); k < refSteps; k++ {
		i = (refTable[i&mask] + k) & mask
		sum += uint64(i)
	}
	return sum
}

// refNode is one reference event: a key and a small payload, allocated
// per push so the reference also exercises the allocator and collector.
type refNode struct {
	key  uint64
	data [3]uint64
}

// refLoop is a miniature event loop: a 4-ary min-heap holding 4096
// pending events, each pop re-pushing a freshly allocated event at a
// pseudo-random later key.
func refLoop(seed uint64) uint64 {
	const pending = 4096
	x := seed*0x9e3779b97f4a7c15 | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := make([]*refNode, 0, pending)
	push := func(n *refNode) {
		h = append(h, n)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 4
			if h[p].key <= h[i].key {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() *refNode {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			m := i
			for c := 4*i + 1; c <= 4*i+4 && c < len(h); c++ {
				if h[c].key < h[m].key {
					m = c
				}
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for i := 0; i < pending; i++ {
		push(&refNode{key: next() >> 40})
	}
	var sum uint64
	for i := 0; i < refOps; i++ {
		n := pop()
		sum += n.data[0]
		push(&refNode{key: n.key + next()>>44, data: [3]uint64{n.key, sum, uint64(i)}})
	}
	return sum
}
