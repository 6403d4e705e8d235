package sim

import (
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
	var got []int
	note := func(id int) func() { return func() { got = append(got, id) } }

	e.Post(wheelWidth, note(0))           // wheel, defeats the window jump
	e.Post(wheelSpan-1, note(1))          // wheel, last bucket
	e.Post(wheelSpan, note(2))            // exact boundary: wheel
	e.Schedule(wheelSpan, note(3))        // owned timer, co-timed with 2: FIFO after it
	e.Post(wheelSpan+wheelWidth, note(4)) // beyond the span: overflow
	e.Post(wheelWidth-1, note(5))         // near heap

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
