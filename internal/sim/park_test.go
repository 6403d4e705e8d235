package sim

import (
	"testing"
	"time"
)

// TestWheelSpanBoundaryParksOnWheel pins the timing-wheel boundary
// semantics: a chain representative whose head event lands exactly one
// full revolution out (at == wBase+wheelSpan) files into its wheel
// bucket, not the overflow list. Before the fix, park routed the exact
// boundary to overflow (`>= wheelSpan`) while the invariant and the
// re-file path treated the wheel as covering it — the rep took a
// needless extra revolution through the overflow scan, and the two
// paths disagreed about which structure owned the boundary.
func TestWheelSpanBoundaryParksOnWheel(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	near, far := e.NewChain(), e.NewChain()

	// Occupy the wheel first so park's empty-wheel window jump cannot
	// move wBase: the boundary value below stays exact.
	near.Post(wheelWidth, func() {})
	if e.wheelCnt != 1 || e.overflowCnt != 0 {
		t.Fatalf("setup: wheelCnt=%d overflowCnt=%d, want 1, 0", e.wheelCnt, e.overflowCnt)
	}

	// Head exactly at wBase+wheelSpan: must park on the wheel.
	var fired []time.Duration
	far.Post(e.wBase+wheelSpan, func() { fired = append(fired, e.Now()) })
	if e.overflowCnt != 0 {
		t.Fatalf("rep at exactly wBase+wheelSpan went to overflow (overflowCnt=%d, wheelCnt=%d)",
			e.overflowCnt, e.wheelCnt)
	}
	if e.wheelCnt != 2 {
		t.Fatalf("wheelCnt = %d, want 2", e.wheelCnt)
	}

	// Strictly beyond the span still overflows.
	deep := e.NewChain()
	deep.Post(e.wBase+wheelSpan+1, func() { fired = append(fired, e.Now()) })
	if e.overflowCnt != 1 {
		t.Fatalf("rep beyond wBase+wheelSpan should overflow (overflowCnt=%d)", e.overflowCnt)
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
// rep must not be reordered by which structure carried it.
func TestWheelSpanBoundaryFireOrder(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var got []int
	note := func(id int) func() { return func() { got = append(got, id) } }

	a, b, c := e.NewChain(), e.NewChain(), e.NewChain()
	a.Post(wheelWidth, note(0))  // wheel, defeats the window jump
	b.Post(wheelSpan-1, note(1)) // wheel, last bucket
	c.Post(wheelSpan, note(2))   // exact boundary: wheel
	e.Post(wheelSpan, note(3))   // plain timer, co-timed with 2: FIFO after it
	d := e.NewChain()
	d.Post(wheelSpan+wheelWidth, note(4)) // beyond the span: overflow
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

// TestChainParkUnpark covers the kernel hook the mesoscale tier uses:
// parking removes the representative from whichever structure holds it
// (near heap, wheel bucket, overflow list) without losing buffered
// events, and unparking restores the exact fire order. The slab
// variants draw both chains from one NewChains slab and buffer enough
// events while parked that the ring leaves its inline storage.
func TestChainParkUnpark(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		at   time.Duration // where the parked chain's head lands
		slab bool
	}{
		{"heap", 10, false},
		{"wheel", 2 * wheelWidth, false},
		{"overflow", wheelSpan + 2*wheelWidth, false},
		{"slab/heap", 10, true},
		{"slab/wheel", 2 * wheelWidth, true},
		{"slab/overflow", wheelSpan + 2*wheelWidth, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			e := NewEngine()
			// A second chain keeps the wheel occupied so the window jump
			// cannot reclassify tc.at, and provides interleaved events.
			other, c := e.NewChain(), e.NewChain()
			parkedPosts := 1
			if tc.slab {
				cs := e.NewChains(2)
				other, c = &cs[0], &cs[1]
				parkedPosts = 5 // 2 + 5 > 4 inline slots
			}
			otherFired := false
			other.Post(wheelWidth, func() { otherFired = true })

			var got []time.Duration
			c.Post(tc.at, func() { got = append(got, e.Now()) })
			c.Post(tc.at+5, func() { got = append(got, e.Now()) })

			pendingBefore := e.Pending()
			c.Park()
			if !c.Parked() {
				t.Fatal("Parked() = false after Park")
			}
			if e.Pending() != pendingBefore {
				t.Fatalf("Pending changed across Park: %d -> %d", pendingBefore, e.Pending())
			}
			c.Park() // idempotent

			// Posts while parked buffer without arming.
			want := []time.Duration{tc.at, tc.at + 5}
			for i := 0; i < parkedPosts; i++ {
				c.Post(tc.at+9+time.Duration(i), func() { got = append(got, e.Now()) })
				want = append(want, tc.at+9+time.Duration(i))
			}
			if e.Pending() != pendingBefore+parkedPosts {
				t.Fatalf("Pending = %d after parked posts, want %d", e.Pending(), pendingBefore+parkedPosts)
			}
			if onInline := &c.ring[0] == &c.inline[0]; onInline != (len(want) <= len(c.inline)) {
				t.Fatalf("%d buffered events, ring on inline storage = %v", len(want), onInline)
			}

			// With the chain parked, running up to (but not past) its head
			// fires only the interleaved plain event.
			interleaved := false
			e.Post(5, func() { interleaved = true })
			e.RunUntil(5)
			if !interleaved || len(got) != 0 {
				t.Fatalf("interleaved=%v, parked chain fired %d events", interleaved, len(got))
			}

			c.Unpark()
			c.Unpark() // idempotent
			e.Run()
			if !otherFired {
				t.Fatal("the interleaving chain never fired")
			}
			if len(got) != len(want) {
				t.Fatalf("fired %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fired %v, want %v", got, want)
				}
			}
		})
	}
}

// TestChainParkEmpty: parking an empty chain suspends future arming
// until Unpark; events posted meanwhile are preserved.
func TestChainParkEmpty(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	c := e.NewChain()
	c.Park()
	var got []time.Duration
	c.Post(3, func() { got = append(got, e.Now()) })
	c.Post(7, func() { got = append(got, e.Now()) })
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run() // nothing armed: no-op
	if len(got) != 0 {
		t.Fatalf("parked chain fired %v", got)
	}
	c.Unpark()
	e.Run()
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("fired %v, want [3ns 7ns]", got)
	}
}

// TestChainUnparkPastHeadPanics: sleeping through a parked chain's head
// event and then unparking would run causality backward; the kernel
// refuses loudly.
func TestChainUnparkPastHeadPanics(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	c := e.NewChain()
	c.Post(5, func() {})
	c.Park()
	e.RunUntil(100)
	defer func() {
		if recover() == nil {
			t.Fatal("Unpark past the head event did not panic")
		}
	}()
	c.Unpark()
}
