// Package sim provides the discrete-event simulation kernel that drives
// every experiment in wattio: a virtual nanosecond clock, an event queue,
// and deterministic random number streams.
//
// Nothing in the simulator reads wall-clock time. A sixty-second power
// measurement runs in milliseconds of host time and is bit-for-bit
// reproducible given the same seed.
//
// The event queue is the hottest loop in the repository (a 6 s run of
// the 1000-device fleet dispatches ~10^7 events, after the device
// models have run their zero-delay stages as direct calls, see
// DueNow), so the kernel is built to run allocation-free at steady
// state:
//
//   - the priority queue is an inlined 4-ary min-heap specialized to
//     *Timer — no interface boxing, no container/heap dispatch, and a
//     quarter of the sift depth of a binary heap;
//   - fire-and-forget events (Post/PostAfter) draw their Timer from a
//     per-engine free list and return it after firing;
//   - recurring work re-arms a single Timer in place (Reschedule,
//     Periodic) instead of allocating a fresh timer and closure per tick;
//   - one arm rule covers every event, a device's posts and owned timers
//     alike, with no per-source queue in front of it: an event due inside
//     the current 512 ns near window goes into the heap, anything later
//     waits on a 4096-bucket timing wheel (≈2.1 ms span; later still, an
//     overflow list re-filed once per revolution), so the heap holds only
//     the current window;
//   - stopped and rescheduled timers leave the queue eagerly, in O(1):
//     through their tracked heap index, or by unlinking from the
//     doubly-linked wheel list recorded on the timer, so the queue never
//     accumulates garbage and Pending is O(1).
package sim

import (
	"fmt"
	"math/bits"
	"time"

	"wattio/internal/telemetry"
)

// heapGaugeMask amortizes the queue-depth telemetry gauge
// (sim_heap_depth): the gauge is refreshed once every heapGaugeMask+1
// dispatches rather than on every schedule and pop. It reads Pending
// after the fired event has left the queue: every queued event
// wherever it waits, near heap, wheel or overflow list. The gauge is a
// monitoring aid, not an input to any simulation result, so sampling it
// is free accuracy-wise; writing it per event showed up in kernel
// profiles.
const heapGaugeMask = 1023

// Engine is a discrete-event scheduler over virtual time.
//
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which keeps co-timed device and sampler events deterministic.
// Engine is not safe for concurrent use; the simulation is single-threaded
// by design so that results are reproducible.
type Engine struct {
	now time.Duration
	pq  []heapEntry // 4-ary min-heap ordered by (at, seq), times inline
	seq uint64

	free *Timer // free list of pooled (Post) timers

	// Timing wheel holding every timer due beyond the near window
	// [wBase, wBase+wheelWidth). Parked timers cost O(1) to file,
	// unlink and surface, versus a full-depth heap sift; the heap
	// ("near heap") holds only the current window. Invariants: every parked timer has at >= wBase+wheelWidth and
	// every heap entry has at < wBase+wheelWidth, so a non-empty near
	// heap always holds the global minimum. occ has one bit per
	// non-empty bucket, letting wheelAdvance skip empty buckets in one
	// step. The bucket array is allocated on first use; its last slot
	// (overflowSlot) heads the overflow list.
	wBase       time.Duration
	wheel       []*Timer // doubly-linked bucket lists through Timer.next/prev
	occ         [wheelBuckets / 64]uint64
	wheelCnt    int // timers in wheel buckets
	overflowCnt int // timers beyond the wheel span, on the overflow list

	// deadline is the active RunUntil bound (-1 outside RunUntil). It is
	// exposed through Deadline so batching samplers (measure.Rig) know
	// how far they may synthesize ticks without overrunning the run.
	deadline time.Duration

	dispatched uint64

	// Telemetry taps. All are nil-safe no-ops when telemetry is off,
	// so the hot path pays one predicted branch per call.
	metrics  *telemetry.Registry
	tracer   *telemetry.Tracer
	cEvents  *telemetry.Counter
	cStopped *telemetry.Counter
	gHeap    *telemetry.Gauge
}

// NewEngine returns an Engine with the clock at zero and no pending
// events, tapped into the process-default telemetry (telemetry.Default)
// if one is installed.
func NewEngine() *Engine {
	e := &Engine{deadline: -1}
	e.EnableTelemetry(telemetry.Default(), telemetry.DefaultTracer())
	return e
}

// EnableTelemetry attaches a metrics registry and a tracer to the
// engine (either may be nil). Devices and workloads read these at
// construction time via Metrics and Tracer, so call it before building
// the testbed on the engine.
func (e *Engine) EnableTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	e.metrics = reg
	e.tracer = tr
	e.cEvents = reg.Counter("sim_events_dispatched_total")
	e.cStopped = reg.Counter("sim_events_stopped_total")
	e.gHeap = reg.Gauge("sim_heap_depth")
}

// Metrics returns the engine's metrics registry; nil when telemetry is
// disabled (handles from a nil registry are no-ops, so callers may use
// the result unconditionally).
func (e *Engine) Metrics() *telemetry.Registry { return e.metrics }

// Tracer returns the engine's event tracer; nil when tracing is
// disabled (a nil tracer discards events, so callers may use the
// result unconditionally).
func (e *Engine) Tracer() *telemetry.Tracer { return e.tracer }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Timer is a handle to a scheduled event. A Timer may be stopped before
// it fires, and re-armed afterwards (or while pending) with Reschedule;
// stopping an already-fired or already-stopped timer is a no-op.
type Timer struct {
	at     time.Duration
	seq    uint64
	fn     func()
	eng    *Engine
	next   *Timer        // wheel-list or free-list link
	prev   *Timer        // wheel-list back link
	index  int           // heap index, -1 when not in the heap
	period time.Duration // >0: auto re-arm after firing (Periodic)

	slot    int32 // wheel slot whose list holds the timer, -1 when not parked
	pooled  bool  // owned by the engine free list; no external handle exists
	stopped bool
	firing  bool // its callback is executing right now
}

// At returns the virtual time the timer is (or was) scheduled to fire.
func (t *Timer) At() time.Duration { return t.at }

// Pending reports whether the timer is queued to fire.
func (t *Timer) Pending() bool { return t.index >= 0 || t.slot >= 0 }

// Stop cancels the timer, removing it from the event queue immediately.
// It reports whether the timer was still pending. Calling Stop from
// inside the timer's own callback cancels a Periodic re-arm.
func (t *Timer) Stop() bool {
	if !t.Pending() {
		if t.firing && !t.stopped {
			// Stopped from inside its own callback: nothing is queued,
			// but mark it so a Periodic timer does not re-arm.
			t.stopped = true
			return true
		}
		return false
	}
	if t.stopped {
		return false
	}
	t.stopped = true
	e := t.eng
	if t.index >= 0 {
		e.heapRemove(t.index)
	} else {
		e.unlink(t)
	}
	e.cStopped.Inc()
	if t.pooled {
		t.recycle()
	}
	return true
}

// Reschedule re-arms the timer to fire its function at absolute virtual
// time at, whether the timer is pending (it is moved in place), stopped,
// or has already fired. The re-armed firing takes a fresh scheduling
// sequence number, exactly as scheduling a new timer at this point
// would, so converting an allocate-per-tick loop to Reschedule preserves
// event order bit-for-bit. Like Schedule it panics on times in the past.
func (t *Timer) Reschedule(at time.Duration) {
	e := t.eng
	if at < e.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", at, e.now))
	}
	if t.pooled {
		panic("sim: reschedule of a pooled (Post) timer")
	}
	if t.fn == nil {
		panic("sim: reschedule of an unarmed timer")
	}
	if t.slot >= 0 {
		e.unlink(t)
	}
	t.stopped = false
	t.at = at
	t.seq = e.seq
	e.seq++
	if t.index >= 0 {
		if at < e.wBase+wheelWidth {
			e.heapFix(t.index)
			return
		}
		e.heapRemove(t.index)
	}
	e.arm(t)
}

// RescheduleAfter re-arms the timer to fire when d has elapsed from the
// current virtual time.
func (t *Timer) RescheduleAfter(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	t.Reschedule(t.eng.now + d)
}

// recycle returns a pooled timer to the engine free list, dropping its
// closure so a recycled Timer can never fire (or retain) a stale one.
func (t *Timer) recycle() {
	t.fn = nil
	t.period = 0
	t.next = t.eng.free
	t.eng.free = t
}

// Schedule runs fn at absolute virtual time at and returns a handle the
// caller owns: it may be stopped and re-armed with Reschedule, and is
// never recycled by the engine. Scheduling in the past (before Now)
// panics: it would silently reorder causality.
func (e *Engine) Schedule(at time.Duration, fn func()) *Timer {
	e.checkSchedule(at, fn)
	t := &Timer{at: at, seq: e.seq, fn: fn, eng: e, index: -1, slot: -1}
	e.seq++
	e.arm(t)
	return t
}

// After runs fn when d has elapsed from the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// Post runs fn at absolute virtual time at, fire-and-forget: no handle
// is returned, and the timer backing the event is drawn from (and
// returned to) the engine's free list, so a steady-state event stream
// allocates nothing. Use it for the one-shot completion events device
// models emit per IO; use Schedule when the caller needs to Stop or
// Reschedule the event.
func (e *Engine) Post(at time.Duration, fn func()) {
	e.checkSchedule(at, fn)
	t := e.free
	if t != nil {
		e.free = t.next
		t.next = nil
		t.stopped = false
	} else {
		t = &Timer{eng: e, pooled: true, index: -1, slot: -1}
	}
	t.at = at
	t.seq = e.seq
	t.fn = fn
	e.seq++
	e.arm(t)
}

// PostAfter runs fn when d has elapsed, fire-and-forget (see Post).
func (e *Engine) PostAfter(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Post(e.now+d, fn)
}

// Periodic runs fn every `every` of virtual time, first at now+every.
// After each firing the same Timer re-arms itself in place — no
// allocation per tick. The callback may Stop the timer (ending the
// series) or Reschedule it (overriding the next firing time, after
// which the period cadence resumes from the new time).
func (e *Engine) Periodic(every time.Duration, fn func()) *Timer {
	if every <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", every))
	}
	at := e.now + every
	e.checkSchedule(at, fn)
	t := &Timer{at: at, seq: e.seq, fn: fn, eng: e, index: -1, slot: -1, period: every}
	e.seq++
	e.arm(t)
	return t
}

func (e *Engine) checkSchedule(at time.Duration, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil func")
	}
}

// --- timing wheel for far timers ----------------------------------------

const (
	wheelShift   = 9 // bucket width 2^9 ns ≈ 0.5µs
	wheelWidth   = time.Duration(1) << wheelShift
	wheelBuckets = 1 << 12
	wheelMask    = wheelBuckets - 1
	wheelSpan    = wheelWidth * wheelBuckets // ≈ 2.1 ms
	overflowSlot = wheelBuckets              // wheel slot heading the overflow list
)

// arm files a timer by the one arm rule: into the near heap when it
// fires inside the current window, onto the wheel otherwise. With
// nothing parked, the window first jumps to now's bucket, so a stale
// window (after AdvanceTo, RunUntil or heap-only stretches) does not
// send near-future timers around the overflow list.
func (e *Engine) arm(t *Timer) {
	if t.at >= e.wBase+wheelWidth && e.wheelCnt+e.overflowCnt == 0 {
		if b := e.now &^ (wheelWidth - 1); b > e.wBase {
			e.wBase = b
		}
	}
	if t.at < e.wBase+wheelWidth {
		e.heapPush(t)
	} else {
		e.park(t)
	}
}

// park files a far timer in its wheel bucket (or the overflow list when
// it lies beyond the wheel span). Caller guarantees
// t.at >= wBase+wheelWidth.
//
// Boundary semantics, pinned: the wheel covers (wBase+wheelWidth-1) up
// to and including wBase+wheelSpan — a timer exactly one full
// revolution out files into the just-surfaced current bucket and comes
// around precisely at its due time. Only timers strictly beyond the
// span go to the overflow list; the re-file in wheelAdvance uses the
// same rule.
func (e *Engine) park(t *Timer) {
	if e.wheel == nil {
		e.wheel = make([]*Timer, wheelBuckets+1)
	}
	j := overflowSlot
	if t.at-e.wBase <= wheelSpan {
		j = int(t.at>>wheelShift) & wheelMask
		e.occ[j>>6] |= 1 << (j & 63)
		e.wheelCnt++
	} else {
		e.overflowCnt++
	}
	t.slot = int32(j)
	t.next = e.wheel[j]
	if t.next != nil {
		t.next.prev = t
	}
	e.wheel[j] = t
}

// unlink removes a parked timer from its wheel list in O(1).
func (e *Engine) unlink(t *Timer) {
	j := int(t.slot)
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		e.wheel[j] = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev, t.slot = nil, nil, -1
	if j == overflowSlot {
		e.overflowCnt--
	} else {
		e.wheelCnt--
		if e.wheel[j] == nil {
			e.occ[j>>6] &^= 1 << (j & 63)
		}
	}
}

// nextOccupied returns the first non-empty bucket at or after j, or
// wheelBuckets when none is left before the wrap.
func (e *Engine) nextOccupied(j int) int {
	for w := j >> 6; w < len(e.occ); w++ {
		m := e.occ[w]
		if w == j>>6 {
			m &= ^uint64(0) << (j & 63)
		}
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return wheelBuckets
}

// wheelAdvance moves the near window forward to the next bucket that
// holds a timer, surfacing its timers into the near heap. It skips
// empty buckets in one step but stops at the wrap to bucket 0, where
// the overflow list is re-filed (once per revolution).
func (e *Engine) wheelAdvance() {
	j := int(e.wBase>>wheelShift) & wheelMask
	d := e.nextOccupied(j+1) - j
	e.wBase += time.Duration(d) << wheelShift
	j = (j + d) & wheelMask
	for t := e.wheel[j]; t != nil; {
		next := t.next
		e.unlink(t)
		e.heapPush(t)
		t = next
	}
	if j == 0 && e.overflowCnt > 0 {
		for t := e.wheel[overflowSlot]; t != nil; {
			next := t.next
			if t.at-e.wBase <= wheelSpan {
				e.unlink(t)
				e.arm(t)
			}
			t = next
		}
	}
}

// ensureNear advances the wheel until the near heap holds the earliest
// pending event: heap entries all fire inside the current window and
// parked timers after it, so that is the moment the heap is non-empty
// or nothing is parked at all. Every peek and pop goes through here; in
// the steady state it is one length check.
func (e *Engine) ensureNear() {
	for len(e.pq) == 0 && e.wheelCnt+e.overflowCnt > 0 {
		e.wheelAdvance()
	}
}

// Step fires the next pending event, advancing the clock to its time.
// It reports whether an event fired (false when the queue is drained).
func (e *Engine) Step() bool {
	e.ensureNear()
	if len(e.pq) == 0 {
		return false
	}
	t := e.heapPop()
	// The virtual clock is monotone by construction (Schedule rejects
	// the past, the heap orders by time); this check turns any future
	// violation of that invariant into a loud failure rather than a
	// silently corrupted energy integral.
	if t.at < e.now {
		panic(fmt.Sprintf("sim: clock would go backward: event at %v, now %v", t.at, e.now))
	}
	e.now = t.at
	e.cEvents.Inc()
	e.dispatched++
	if e.dispatched&heapGaugeMask == 0 {
		e.gHeap.Set(int64(e.Pending()))
	}
	if t.pooled {
		// Recycle before firing: the callback may Post again and reuse
		// this very timer. Its closure is extracted first and cleared by
		// recycle, so a recycled Timer cannot alias a stale callback.
		fn := t.fn
		t.recycle()
		fn()
		return true
	}
	t.firing = true
	t.fn()
	t.firing = false
	if t.period > 0 && !t.stopped && !t.Pending() {
		// Periodic: re-arm in place unless the callback stopped or
		// explicitly rescheduled the timer.
		t.at += t.period
		t.seq = e.seq
		e.seq++
		e.arm(t)
	}
	return true
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline remain pending.
func (e *Engine) RunUntil(deadline time.Duration) {
	prev := e.deadline
	e.deadline = deadline
	for {
		e.ensureNear()
		if len(e.pq) == 0 || e.pq[0].at > deadline {
			break
		}
		e.Step()
	}
	e.deadline = prev
	if e.now < deadline {
		e.now = deadline
	}
}

// Deadline returns the bound of the innermost RunUntil currently
// executing, and whether there is one. Batching samplers use it to
// know how far they may synthesize ticks without overrunning the run.
func (e *Engine) Deadline() (time.Duration, bool) {
	return e.deadline, e.deadline >= 0
}

// AdvanceTo moves the virtual clock forward to t without dispatching
// anything. It panics if an event is pending at or before t: skipping
// it would reorder causality. This is the batching samplers' fast path —
// a sampler that knows no event fires inside its next window advances
// the clock and samples inline instead of round-tripping the event
// queue, and because the clock really advances, every lazily-integrated
// quantity (meter energy, RNG-free state) accumulates exactly as if the
// tick had been dispatched.
func (e *Engine) AdvanceTo(t time.Duration) {
	if t < e.now {
		panic(fmt.Sprintf("sim: advance to %v before now %v", t, e.now))
	}
	for t >= e.wBase+wheelWidth && e.wheelCnt+e.overflowCnt > 0 {
		e.wheelAdvance()
	}
	if len(e.pq) > 0 && e.pq[0].at <= t {
		panic(fmt.Sprintf("sim: advance to %v past pending event at %v", t, e.pq[0].at))
	}
	e.now = t
}

// NextEventAt returns the virtual time of the earliest pending event,
// and whether one exists. Stopped timers are removed eagerly, so the
// answer never reflects cancelled work.
func (e *Engine) NextEventAt() (time.Duration, bool) {
	e.ensureNear()
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].at, true
}

// DueNow reports whether an event is queued at the current instant, in
// O(1). Only the near heap's root can be: a parked timer fires at or
// after the end of the near window, and the clock never passes that end
// while a timer is parked. A model that would post an event for now can
// run it as a direct call when DueNow is false, since nothing else would
// fire between the current callback's return and that event.
func (e *Engine) DueNow() bool { return len(e.pq) > 0 && e.pq[0].at == e.now }

// Pending returns the number of events still queued (including events at
// the current instant and events on the timing wheel). Stopped timers
// leave the queue immediately, so this is a live count, O(1).
func (e *Engine) Pending() int {
	return len(e.pq) + e.wheelCnt + e.overflowCnt
}

// Dispatched returns the number of events the engine has fired since
// construction. It is a deterministic measure of simulation work (wall
// clock is not), which the mesoscale experiments use to report how many
// events aggregation removed from a run.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// --- 4-ary min-heap over (at, seq) ---------------------------------------
//
// A 4-ary layout halves tree depth versus binary, and the four children
// of a node share a cache line of *Timer pointers; with the comparison
// inlined (no heap.Interface dispatch, no any-boxing) sift-down is the
// kernel's entire inner loop. Order is (at, seq): seq breaks co-timed
// ties FIFO, which is the determinism contract.

// heapEntry is one heap slot. The fire time is stored inline so the
// sift loops compare against contiguous memory; the Timer is consulted
// only to break exact-time ties on seq (and to maintain its index).
// Four 16-byte entries — one parent's whole child group — share a
// cache line.
type heapEntry struct {
	at time.Duration
	t  *Timer
}

// entryLess reports whether a orders strictly before b: earlier time
// first, FIFO on ties via the scheduling sequence number.
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.t.seq < b.t.seq
}

func (e *Engine) heapPush(t *Timer) {
	e.pq = append(e.pq, heapEntry{t.at, t})
	e.siftUp(len(e.pq) - 1)
}

func (e *Engine) heapPop() *Timer {
	pq := e.pq
	t := pq[0].t
	n := len(pq) - 1
	last := pq[n]
	pq[n] = heapEntry{}
	e.pq = pq[:n]
	t.index = -1
	if n > 0 {
		e.pq[0] = last
		last.t.index = 0
		e.siftDown(0)
	}
	return t
}

// heapRemove deletes the timer at heap index i.
func (e *Engine) heapRemove(i int) {
	pq := e.pq
	t := pq[i].t
	n := len(pq) - 1
	last := pq[n]
	pq[n] = heapEntry{}
	e.pq = pq[:n]
	t.index = -1
	if i < n {
		e.pq[i] = last
		last.t.index = i
		e.heapFix(i)
	}
}

// heapFix restores heap order after the timer at index i changed key,
// refreshing the inline time copy first.
func (e *Engine) heapFix(i int) {
	e.pq[i].at = e.pq[i].t.at
	e.siftDown(i)
	e.siftUp(i)
}

func (e *Engine) siftUp(i int) {
	pq := e.pq
	t := pq[i]
	for i > 0 {
		p := (i - 1) >> 2
		pt := pq[p]
		if !entryLess(t, pt) {
			break
		}
		pq[i] = pt
		pt.t.index = i
		i = p
	}
	pq[i] = t
	t.t.index = i
}

func (e *Engine) siftDown(i int) {
	pq := e.pq
	n := len(pq)
	t := pq[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Select the smallest of up to four children.
		m, mt := c, pq[c]
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if jt := pq[j]; entryLess(jt, mt) {
				m, mt = j, jt
			}
		}
		if !entryLess(mt, t) {
			break
		}
		pq[i] = mt
		mt.t.index = i
		i = m
	}
	pq[i] = t
	t.t.index = i
}
