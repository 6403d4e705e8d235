package sim

import (
	"cmp"
	"slices"
	"testing"
	"time"
)

// TestWheelSpanBoundaryParksOnWheel pins the timing-wheel boundary
// semantics: an event that lands exactly one full revolution out
// (at == wBase+wheelSpan) files into its wheel bucket, not the overflow
// list. Before the fix, park routed the exact boundary to overflow
// (`>= wheelSpan`) while the invariant and the re-file path treated the
// wheel as covering it — the event took a needless extra revolution
// through the overflow scan, and the two paths disagreed about which
// structure owned the boundary.
func TestWheelSpanBoundaryParksOnWheel(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	e.openWheel()

	// Occupy the wheel first so park's empty-wheel window jump cannot
	// move wBase: the boundary value below stays exact.
	e.Post(wheelWidth, func() {})
	if e.wheelCnt != 1 || e.overflowCnt != 0 {
		t.Fatalf("setup: wheelCnt=%d overflowCnt=%d, want 1, 0", e.wheelCnt, e.overflowCnt)
	}

	// Exactly at wBase+wheelSpan: must park on the wheel.
	var fired []time.Duration
	e.Post(e.wBase+wheelSpan, func() { fired = append(fired, e.Now()) })
	if e.overflowCnt != 0 {
		t.Fatalf("event at exactly wBase+wheelSpan went to overflow (overflowCnt=%d, wheelCnt=%d)",
			e.overflowCnt, e.wheelCnt)
	}
	if e.wheelCnt != 2 {
		t.Fatalf("wheelCnt = %d, want 2", e.wheelCnt)
	}

	// Strictly beyond the span still overflows.
	e.Post(e.wBase+wheelSpan+1, func() { fired = append(fired, e.Now()) })
	if e.overflowCnt != 1 {
		t.Fatalf("event beyond wBase+wheelSpan should overflow (overflowCnt=%d)", e.overflowCnt)
	}

	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	want := []time.Duration{wheelSpan, wheelSpan + 1}
	e.Run()
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// TestWheelSpanBoundaryFireOrder drives co-timed and boundary-adjacent
// events through heap, wheel, and overflow and checks the dispatch
// order is exactly (time, then scheduling order) — the exact-boundary
// event must not be reordered by which structure carried it.
func TestWheelSpanBoundaryFireOrder(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	e.openWheel()
	var got []int
	note := func(id int) func() { return func() { got = append(got, id) } }

	e.Post(wheelWidth, note(0))           // wheel, defeats the window jump
	e.Post(wheelSpan-1, note(1))          // wheel, last bucket
	e.Post(wheelSpan, note(2))            // exact boundary: wheel
	e.Schedule(wheelSpan, note(3))        // owned timer, co-timed with 2: FIFO after it
	e.Post(wheelSpan+wheelWidth, note(4)) // beyond the span: overflow
	e.Post(wheelWidth-1, note(5))         // near heap
	if len(e.pq) != 1 || e.wheelCnt != 4 || e.overflowCnt != 1 {
		t.Fatalf("heap %d, wheel %d, overflow %d; want 1, 4, 1", len(e.pq), e.wheelCnt, e.overflowCnt)
	}

	e.Run()
	want := []int{5, 0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestSparseEngineStaysOnHeap: a steady stream that never queues more
// than heapOnlyMax timers runs on the heap alone, whatever its delays
// (here all far beyond the near window, some beyond the wheel span):
// the wheel is never allocated and each event allocates nothing.
func TestSparseEngineStaysOnHeap(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	for i := range heapOnlyMax - 2 {
		d := time.Duration(i+1) * 3 * wheelWidth
		var fn func()
		fn = func() { e.PostAfter(d, fn) }
		e.PostAfter(d, fn)
	}
	// An owned timer moved while pending (a heapFix in place) by a
	// Periodic, and re-armed beyond the span by its own callback.
	var owned *Timer
	owned = e.Schedule(wheelSpan+1, func() { owned.Reschedule(e.Now() + 2*wheelSpan) })
	e.Periodic(wheelSpan/3, func() { owned.Reschedule(e.Now() + wheelSpan/4) })
	e.RunUntil(wheelSpan)
	if n := testing.AllocsPerRun(2000, func() { e.Step() }); n != 0 {
		t.Fatalf("heap-only engine allocates %v per event, want 0", n)
	}
	if e.wheel != nil {
		t.Fatalf("wheel opened with at most %d timers queued", heapOnlyMax)
	}
	if e.Pending() != heapOnlyMax {
		t.Fatalf("Pending = %d, want %d", e.Pending(), heapOnlyMax)
	}
}

// checkHeap fails t unless the heap is ordered by (at, seq) and every
// entry's inline time and its timer's index are current.
func checkHeap(t *testing.T, e *Engine) {
	t.Helper()
	for i, h := range e.pq {
		if h.t.index != i || h.at != h.t.at {
			t.Fatalf("heap slot %d: index %d, inline at %v, timer at %v", i, h.t.index, h.at, h.t.at)
		}
		if i > 0 && entryLess(h, e.pq[(i-1)>>2]) {
			t.Fatalf("heap slot %d orders before its parent", i)
		}
	}
}

// TestWheelOpensMidRun fills a heap-only engine to heapOnlyMax with
// timers on both sides of the window the wheel will open on, at and
// beyond its span, a Periodic, a stopped timer and a pending
// Reschedule, then arms one more. The wheel must open on now's bucket,
// take exactly the timers due at or after the window's end, and leave
// a valid heap; DueNow, NextEventAt and AdvanceTo must hold at once,
// and everything must fire in sorted (time, seq) order.
func TestWheelOpensMidRun(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	e.AdvanceTo(10*wheelWidth + 100)
	now := e.Now()
	wBase := now &^ (wheelWidth - 1)
	end := wBase + wheelWidth

	type ev struct {
		at  time.Duration
		seq uint64
		id  int
	}
	var ref, got []ev
	var seq uint64
	note := func(id int) func() { return func() { got = append(got, ev{e.Now(), 0, id}) } }
	schedule := func(at time.Duration) *Timer {
		id := len(ref)
		ref = append(ref, ev{at, seq, id})
		seq++
		return e.Schedule(at, note(id))
	}

	schedule(now) // due now
	schedule(now + 5)
	schedule(end - 1)
	schedule(end - 1) // co-timed: FIFO behind the one above
	schedule(end)     // the first time past the window
	exact := schedule(wBase + wheelSpan)
	beyond := schedule(wBase + wheelSpan + 1)
	stopped := schedule(end + 100)
	stopped.Stop()
	ref = ref[:len(ref)-1]
	moved := schedule(now + 2)
	moved.Reschedule(end + 2*wheelWidth)
	ref[len(ref)-1] = ev{end + 2*wheelWidth, seq, len(ref) - 1}
	seq++

	const periodicID = 1000
	period := 3*wheelWidth + 7
	fired := 0
	var periodic *Timer
	periodic = e.Periodic(period, func() {
		got = append(got, ev{e.Now(), 0, periodicID + fired})
		if fired++; fired == 3 {
			periodic.Stop()
		}
	})
	ref = append(ref, ev{now + period, seq, periodicID})
	seq++

	refiled := schedule(end + 3*wheelWidth)
	refiledID := len(ref) - 1
	// Fillers alternate far timers with near ones in falling order, so
	// the near timers left behind sit deep in the heap and out of order
	// until it is rebuilt.
	for k := 1; e.Pending() < heapOnlyMax; k++ {
		if k%2 == 0 {
			schedule(end - 1 - time.Duration(k))
		} else {
			schedule(now + time.Duration(k*k*7919)%(3*wheelSpan))
		}
	}
	if e.wheel != nil || len(e.pq) != heapOnlyMax {
		t.Fatalf("before the switch: wheel open %v, heap %d, want closed and %d", e.wheel != nil, len(e.pq), heapOnlyMax)
	}
	schedule(now + 20*wheelWidth) // the 65th timer opens the wheel

	if e.wheel == nil || e.wBase != wBase {
		t.Fatalf("after the switch: wheel open %v, wBase %v; want open on %v", e.wheel != nil, e.wBase, wBase)
	}
	checkHeap(t, e)
	parked, overflow := 0, 0
	for _, r := range ref {
		if r.at >= end {
			parked++
		}
		if r.at-wBase > wheelSpan {
			overflow++
		}
	}
	for _, h := range e.pq {
		if h.at >= end {
			t.Fatalf("heap holds a timer at %v, past the window's end %v", h.at, end)
		}
	}
	if e.wheelCnt+e.overflowCnt != parked || e.overflowCnt != overflow || e.Pending() != len(ref) {
		t.Fatalf("wheel %d, overflow %d, pending %d; want %d parked, %d of them on overflow, %d pending",
			e.wheelCnt, e.overflowCnt, e.Pending(), parked, overflow, len(ref))
	}
	if j := int(wBase>>wheelShift) & wheelMask; exact.slot != int32(j) || beyond.slot != overflowSlot || stopped.Pending() {
		t.Fatalf("exact-span timer in slot %d (want %d), beyond-span in %d (want %d), stopped pending %v",
			exact.slot, j, beyond.slot, overflowSlot, stopped.Pending())
	}

	// A re-filed timer leaves the wheel, not the heap, when stopped.
	refiled.Stop()
	ref = slices.DeleteFunc(ref, func(r ev) bool { return r.id == refiledID })
	checkHeap(t, e)
	if e.Pending() != len(ref) {
		t.Fatalf("Pending = %d after stopping a re-filed timer, want %d", e.Pending(), len(ref))
	}

	if !e.DueNow() {
		t.Fatal("a timer is due now, but DueNow is false")
	}
	if at, ok := e.NextEventAt(); !ok || at != now {
		t.Fatalf("NextEventAt = %v, %v; want %v, true", at, ok, now)
	}
	e.Step()
	if e.DueNow() {
		t.Fatal("nothing is due now, but DueNow is true")
	}
	e.AdvanceTo(now + 1)
	if at, ok := e.NextEventAt(); !ok || at != now+5 {
		t.Fatalf("NextEventAt = %v, %v after AdvanceTo; want %v, true", at, ok, now+5)
	}
	e.Run()

	// The Periodic's re-armed firings take sequence numbers after every
	// timer armed above: nothing else is armed once the run starts.
	for k := 1; k < 3; k++ {
		ref = append(ref, ev{now + time.Duration(k+1)*period, seq + uint64(k-1), periodicID + k})
	}
	slices.SortFunc(ref, func(a, b ev) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	if len(got) != len(ref) {
		t.Fatalf("fired %d events, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i].id != ref[i].id || got[i].at != ref[i].at {
			t.Fatalf("firing %d: id %d at %v, want id %d at %v", i, got[i].id, got[i].at, ref[i].id, ref[i].at)
		}
	}
}
