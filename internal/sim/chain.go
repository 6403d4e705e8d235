package sim

import (
	"fmt"
	"time"
)

// Chain is an event FIFO for a serialized resource: a source whose
// event times are non-decreasing by construction (a device command
// unit, a host link, a NAND die — anything reserved through a
// busy-until horizon). Because the source's events are already in fire
// order relative to each other, they do not need individual slots in
// the engine's priority queue: the Chain buffers them in a ring and
// keeps exactly one representative Timer queued (in the near heap or on
// the timing wheel, by the engine's arm rule), carrying the head
// event's (time, seq) key. Each fire pops the head and re-keys the
// representative to the next event.
//
// This turns the dominant event class in device-saturated runs from a
// heap push + pop over an O(pending-IO) queue into an O(1) ring append
// and shrinks the heap to roughly one entry per resource, which is the
// difference between sift loops walking DRAM and walking L1.
//
// Determinism contract: Chain.Post consumes one scheduling sequence
// number exactly like Engine.Post, and the representative always
// carries the head's original (time, seq), so the global fire order —
// including FIFO ordering among co-timed events on different chains or
// plain timers — is bit-for-bit the order the same Posts would have
// produced through the heap.
//
// A Chain must never be copied: its representative points back at it,
// and its ring starts out pointing into its own inline storage. go vet's
// copylocks check enforces this through the noCopy field.
type Chain struct {
	_      noCopy
	eng    *Engine
	rep    Timer // embedded, so it lives in the chain's own allocation
	ring   []chainEv
	head   int
	n      int
	last   time.Duration // most recently queued time, for the monotonicity check
	parked bool
	// inline backs ring until the chain first holds more than four
	// events; grow then moves the ring to the heap for good.
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

// NewChain returns an empty chain on the engine. The caller must only
// post non-decreasing times to it.
func (e *Engine) NewChain() *Chain { return &e.NewChains(1)[0] }

// NewChains returns n empty chains on the engine in one allocation, a
// slab for a device's serialized resources. Address the chains in
// place (&cs[i]); a copied Chain is corrupt.
func (e *Engine) NewChains(n int) []Chain {
	cs := make([]Chain, n)
	for i := range cs {
		c := &cs[i]
		c.eng = e
		c.ring = c.inline[:]
		c.rep = Timer{eng: e, index: -1, slot: -1, chain: c}
	}
	return cs
}

// Post schedules fn at absolute virtual time at, which must be no
// earlier than both the current time and the chain's most recently
// posted time. Fire-and-forget: chain events cannot be stopped.
func (c *Chain) Post(at time.Duration, fn func()) {
	e := c.eng
	e.checkSchedule(at, fn)
	if at < c.last {
		panic(fmt.Sprintf("sim: chain post at %v before prior post at %v", at, c.last))
	}
	c.last = at
	seq := e.seq
	e.seq++
	if c.n == len(c.ring) {
		c.grow()
	}
	c.ring[(c.head+c.n)&(len(c.ring)-1)] = chainEv{at, seq, fn}
	c.n++
	if c.n == 1 && !c.parked {
		c.rep.at, c.rep.seq = at, seq
		e.arm(&c.rep)
	} else {
		e.chainExtra++
	}
}

// PostLoose schedules fn at absolute time at, riding the chain when at
// preserves the chain's time order and falling back to a plain engine
// Post when it does not (an admission horizon can move backward when a
// power-state change swaps the regulator). One sequence number is
// consumed either way, and fire order is (time, seq) regardless of
// which structure carries the event, so the routing choice is invisible
// to the simulation.
func (c *Chain) PostLoose(at time.Duration, fn func()) {
	if at < c.last {
		c.eng.Post(at, fn)
		return
	}
	c.Post(at, fn)
}

// Len returns the number of events buffered on the chain.
func (c *Chain) Len() int { return c.n }

// Parked reports whether the chain's dispatch is suspended.
func (c *Chain) Parked() bool { return c.parked }

// Park suspends the chain's dispatch: its representative leaves the
// engine's queues (near heap, timing wheel, or overflow list) while
// every buffered event — times, sequence numbers, and callbacks — is
// preserved in the ring. A parked chain accepts further Posts, which
// buffer without arming. Parked events still count toward Pending, but
// the engine will not fire them and RunUntil/Run will pass them by:
// that is the point — the mesoscale tier parks a quiesced device's
// chains so its serialized resources stop costing heap traffic, and
// the aggregate layer answers for the interval instead.
//
// Park is idempotent. Park followed by Unpark before virtual time
// reaches the head event is exactly a no-op for the fire order: the
// representative re-arms with the head's original (time, seq) key.
func (c *Chain) Park() {
	if c.parked {
		return
	}
	c.parked = true
	if c.n == 0 {
		return
	}
	e := c.eng
	e.dequeue(&c.rep)
	// The head is no longer represented anywhere; count it with the
	// buffered tail so Pending stays exact.
	e.chainExtra++
}

// Unpark resumes the chain's dispatch, re-filing the representative
// with the head event's original (time, seq) key so the global fire
// order is exactly what it would have been had the chain never parked.
// It panics if virtual time has passed the head event — firing it would
// run causality backward; the caller owns not sleeping through its own
// schedule (the serving tier only parks drained chains, and unparks at
// control-period boundaries before posting new work).
func (c *Chain) Unpark() {
	if !c.parked {
		return
	}
	c.parked = false
	if c.n == 0 {
		return
	}
	e := c.eng
	h := &c.ring[c.head]
	if h.at < e.now {
		panic(fmt.Sprintf("sim: unpark with head event at %v before now %v", h.at, e.now))
	}
	c.rep.at, c.rep.seq = h.at, h.seq
	e.chainExtra--
	e.arm(&c.rep)
}

// grow doubles the ring, unwrapping it to the front.
func (c *Chain) grow() {
	old := c.ring
	next := make([]chainEv, len(old)*2)
	m := len(old) - 1
	for i := 0; i < c.n; i++ {
		next[i] = old[(c.head+i)&m]
	}
	c.ring = next
	c.head = 0
}
