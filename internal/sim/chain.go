package sim

import "time"

// Chain is a small event queue for one source of work on a device: a
// command unit, a host link, the NAND array. It keeps its events in a
// slice sorted by (time, seq) and exactly one representative Timer in
// the engine's queues (the near heap or the timing wheel, by the
// engine's arm rule), carrying the head event's (time, seq) key. Each
// fire pops the head and re-keys the representative to the next event;
// a post that becomes the new head re-files the representative.
//
// A device's events then cost the engine's queue one slot per chain
// instead of one per event. A post goes in behind every queued event at
// or before its time, found by scanning back from the tail: sources
// post nearly in time order (an SSD2's NAND chain moves 2.4 events per
// post when saturated), so a post moves a few events and a pop is O(1),
// where a heap would sift every pop through the whole queue.
//
// Determinism contract: Chain.Post consumes one scheduling sequence
// number exactly like Engine.Post, and the representative always
// carries the head's original (time, seq), so the global fire order —
// including FIFO ordering among co-timed events on different chains or
// plain timers — is bit-for-bit the order the same Posts would have
// produced through the engine's heap.
//
// A Chain must never be copied: its representative points back at it,
// and its queue starts out in its own inline storage. go vet's copylocks
// check enforces this through the noCopy field.
type Chain struct {
	_    noCopy
	eng  *Engine
	rep  Timer     // embedded, so it lives in the chain's own allocation
	evs  []chainEv // evs[head:] are the queued events, in (time, seq) order
	head int
	// inline backs evs until the chain first holds more than four
	// events; append then moves them to the heap for good.
	inline [4]chainEv
}

// noCopy is a zero-size marker whose no-op Lock/Unlock make go vet's
// copylocks check report any copy of a struct that holds it.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

type chainEv struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// NewChain returns an empty chain on the engine.
func (e *Engine) NewChain() *Chain { return &e.NewChains(1)[0] }

// NewChains returns n empty chains on the engine in one allocation, a
// slab for a device's event sources. Address the chains in place
// (&cs[i]); a copied Chain is corrupt.
func (e *Engine) NewChains(n int) []Chain {
	cs := make([]Chain, n)
	for i := range cs {
		c := &cs[i]
		c.eng = e
		c.evs = c.inline[:0]
		c.rep = Timer{eng: e, index: -1, slot: -1, chain: c}
	}
	return cs
}

// Post schedules fn at absolute virtual time at, which must be no
// earlier than the current time. Fire-and-forget: chain events cannot
// be stopped.
func (c *Chain) Post(at time.Duration, fn func()) {
	e := c.eng
	e.checkSchedule(at, fn)
	evs := c.evs
	if c.head > 0 && len(evs) == cap(evs) && 2*c.head >= len(evs) {
		// Half the slice is popped: slide the queue down instead of
		// growing.
		n := copy(evs, evs[c.head:])
		clear(evs[n:])
		evs, c.head = evs[:n], 0
	}
	// The post has the largest seq, so it goes behind every event at or
	// before its time.
	i := len(evs)
	for i > c.head && evs[i-1].at > at {
		i--
	}
	evs = append(evs, chainEv{})
	copy(evs[i+1:], evs[i:])
	evs[i] = chainEv{at, e.seq, fn}
	e.seq++
	c.evs = evs
	if i > c.head {
		e.chainExtra++
		return
	}
	if c.Len() > 1 {
		// The post is earlier than the old head: its representative
		// leaves the queue it waits in and comes back with the new key.
		e.dequeue(&c.rep)
		e.chainExtra++
	}
	c.rep.at, c.rep.seq = at, evs[i].seq
	e.arm(&c.rep)
}

// Len returns the number of events queued on the chain.
func (c *Chain) Len() int { return len(c.evs) - c.head }

// pop removes and returns the head event.
func (c *Chain) pop() chainEv {
	ev := c.evs[c.head]
	c.evs[c.head] = chainEv{}
	c.head++
	if c.head == len(c.evs) {
		c.evs, c.head = c.evs[:0], 0
	}
	return ev
}
