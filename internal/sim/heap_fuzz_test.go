package sim

import (
	"bytes"
	"container/heap"
	"testing"
	"time"
)

// The engine's inlined 4-ary heap, alone or with the timing wheel open
// beside it, must fire events in exactly the order a textbook priority
// queue over (time, seq) would. FuzzHeapDifferential drives both from
// the same random script of schedule / post / stop / reschedule /
// periodic / step / advance / open-wheel operations and requires
// identical fire sequences, including FIFO order among co-timed events.
// The engine runs on its heap alone until the script opens the wheel
// (op 16) or queues a 65th timer, so each seed runs twice: as written,
// mostly heap-only, and behind an opening op 16, wholly with the wheel;
// a mid-script op 16 re-files the far part of a populated heap onto
// the wheel. Posts land in any order at or after now: near posts
// behind far ones, and early posts ahead of everything queued, as a
// device's event sources post them. Far posts step in eighths of the
// wheel span so the fuzzer reaches the exact wheel/overflow boundary
// (at == wBase+wheelSpan), which must park on the wheel, not the
// overflow list. Far plain timers step in sixteenths of the span plus a
// few buckets, up to four revolutions out, so they land on the wheel,
// alias one another's buckets from the overflow list, and re-file at
// the wrap to bucket 0.

type refEv struct {
	at    time.Duration
	seq   uint64
	id    int
	owner int // index of the owned timer firing this event, -1 for none
}

type refHeap []refEv

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEv)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	*h = old[:n]
	return ev
}

func (h *refHeap) removeID(id int) bool {
	for i, ev := range *h {
		if ev.id == id {
			heap.Remove(h, i)
			return true
		}
	}
	return false
}

func FuzzHeapDifferential(f *testing.F) {
	seeds := [][]byte{
		{0, 1, 1, 2, 2, 0, 5, 0, 5, 0, 5, 0},
		{2, 3, 2, 3, 2, 3, 5, 0, 3, 0, 5, 0, 4, 1, 7},
		{0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 5, 0, 6, 200, 6, 10, 5, 0},
		{0, 9, 4, 0, 20, 3, 0, 4, 0, 9, 5, 0, 5, 0, 5, 0},
		// Exact wheel-span boundary: a far post at precisely wBase+wheelSpan
		// (arg 7 = 8 eighths of the span, with the wheel already occupied so
		// the window jump cannot move wBase) must file on the wheel.
		{6, 0, 6, 7, 5, 0, 5, 0, 5, 0},
		{6, 7, 7, 0, 7, 0, 5, 0, 6, 7, 5, 0, 5, 0},
		// Early posts interleaved with near-heap traffic.
		{2, 0, 7, 0, 1, 10, 5, 0, 7, 0, 5, 0, 5, 0},
		// A parked plain timer rescheduled into a different bucket, then
		// back into the near window.
		{0, 40, 0, 60, 4, 100, 15, 0, 14, 1, 15, 0, 15, 0},
		// A near-heap timer rescheduled far out must leave the heap for the
		// wheel, behind a parked post it now follows.
		{0, 1, 1, 40, 9, 0, 15, 0, 15, 0},
		// Stops: one leaves its bucket occupied (the next step must still
		// find it), one empties a bucket the skip must then pass over.
		{0, 40, 0, 41, 0, 80, 0, 120, 3, 0, 15, 0, 3, 3, 15, 0, 15, 0},
		// Skips over runs of empty buckets up to the next event's bucket.
		{0, 10, 0, 200, 1, 255, 8, 0, 15, 0, 15, 0, 15, 0, 15, 0},
		// The wrap to bucket 0 with overflow present: far timers several
		// revolutions out re-file, one revolution at a time.
		{8, 20, 12, 70, 8, 255, 10, 5, 15, 0, 15, 0, 15, 0, 15, 0, 15, 0},
		// The skip must stop at the wrap even when the next occupied bucket
		// lies beyond it: an overflow timer due before that bucket re-files
		// there.
		{8, 17, 12, 7, 15, 0, 12, 13, 15, 0, 15, 0},
		// AdvanceTo across skipped buckets, short of a parked timer.
		{0, 200, 8, 3, 11, 100, 15, 0, 11, 255, 13, 0, 15, 0},
		// A parked timer rescheduled onto the overflow list, aliasing the
		// bucket of another parked timer: the unlink must clear its old
		// bucket's occupancy, not the bucket its new time maps to, or the
		// other timer (and the plain post between them) is skipped.
		{8, 3, 12, 7, 0, 10, 9, 19, 15, 0, 15, 0, 15, 0, 15, 0},
		// Periodic timers re-arming onto the wheel and across revolutions,
		// one rescheduled and one stopped mid-series.
		{10, 9, 10, 70, 15, 0, 4, 33, 15, 0, 3, 1, 15, 0, 15, 0},
		// Runs of ascending near posts, interleaved with steps that pop
		// their heads.
		{2, 2, 2, 4, 2, 6, 2, 8, 2, 10, 2, 12, 2, 1, 5, 0, 5, 0, 2, 14, 2, 16, 2, 18, 2, 20, 2, 22, 5, 0},
		{2, 2, 2, 4, 2, 6, 5, 0, 5, 0, 2, 8, 2, 10, 2, 12, 2, 14, 5, 0, 5, 0},
		// Ascending near posts while early posts keep taking the head.
		{2, 2, 7, 0, 2, 4, 2, 6, 2, 8, 2, 10, 2, 12, 2, 3, 7, 0, 5, 0, 5, 0},
		// Far posts (on the wheel and beyond its span), then early posts
		// ahead of them, co-timed with one another and with plain posts.
		{6, 0, 6, 1, 6, 10, 6, 11, 7, 0, 7, 1, 7, 2, 1, 0, 7, 4, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0},
		// Descending near posts, each the new head.
		{2, 200, 2, 150, 2, 100, 2, 50, 2, 0, 7, 3, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0},
		// The wheel opens mid-script, with owned, posted, periodic,
		// rescheduled and stopped timers queued on both sides of the
		// window it opens on, at and beyond its span.
		{0, 1, 8, 20, 2, 3, 10, 9, 4, 30, 6, 8, 6, 9, 0, 50, 3, 4, 12, 70, 5, 0, 7, 0, 2, 1, 14, 2, 16, 0, 13, 0, 3, 1, 4, 5, 3, 6, 5, 0, 11, 5, 15, 0, 15, 0},
		// The same, stepping up to the switch and advancing right after it.
		{8, 3, 0, 9, 10, 4, 6, 8, 2, 7, 15, 0, 7, 8, 14, 1, 16, 0, 11, 2, 13, 0, 7, 0, 15, 0, 15, 0},
		// A 65th queued timer opens the wheel without op 16.
		bytes.Repeat([]byte{12, 37, 6, 5, 1, 200}, 23),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(append([]byte{16, 0}, s...))
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		e := NewEngine()

		var ref refHeap
		var refSeq uint64
		nextID := 0

		var engFired, refFired []int

		// Owned timers created so far; ownedEv[k] is the id of timer k's
		// currently pending firing, -1 when none. The engine callback
		// reads the id at fire time, so a Reschedule changes which id the
		// next firing reports — on both sides. A Periodic timer k
		// (period[k] > 0) fires left[k] more times, taking a fresh id per
		// firing, then stops itself from inside its callback.
		var owned []*Timer
		var ownedEv []int
		var period []time.Duration
		var left []int

		push := func(at time.Duration, id, owner int) {
			heap.Push(&ref, refEv{at, refSeq, id, owner})
			refSeq++
		}

		// own schedules owned timer k's first firing (a Periodic one when
		// every > 0) on both sides.
		own := func(at, every time.Duration) {
			id := nextID
			nextID++
			k := len(owned)
			ownedEv = append(ownedEv, id)
			period = append(period, every)
			left = append(left, 3)
			fn := func() {
				engFired = append(engFired, ownedEv[k])
				ownedEv[k] = -1
				if period[k] > 0 {
					if left[k]--; left[k] > 0 {
						ownedEv[k] = nextID
						nextID++
					} else {
						owned[k].Stop()
					}
				}
			}
			if every > 0 {
				owned = append(owned, e.Periodic(every, fn))
			} else {
				owned = append(owned, e.Schedule(at, fn))
			}
			push(at, id, k)
		}

		// reschedule re-arms owned timer k at `at` on both sides.
		reschedule := func(k int, at time.Duration) {
			id := nextID
			nextID++
			if ownedEv[k] >= 0 {
				ref.removeID(ownedEv[k])
			}
			ownedEv[k] = id
			owned[k].Reschedule(at)
			push(at, id, k)
		}

		// step dispatches one event on both sides, reporting whether one
		// fired. The reference pops
		// after the engine fired, so a Periodic timer's callback has
		// already chosen its next firing's id (or stopped the series),
		// and re-arms it at the popped time plus the period with the
		// next sequence number, exactly as the engine does.
		step := func(i int) bool {
			engOK := e.Step()
			if refOK := ref.Len() > 0; engOK != refOK {
				t.Fatalf("op %d: Step() = %v but reference has %d pending", i, engOK, ref.Len())
			}
			if !engOK {
				return false
			}
			ev := heap.Pop(&ref).(refEv)
			refFired = append(refFired, ev.id)
			if k := ev.owner; k >= 0 && period[k] > 0 && ownedEv[k] >= 0 {
				push(ev.at+period[k], ownedEv[k], k)
			}
			return true
		}

		// farDelta maps an op argument to a delay of 1/16 to 4 wheel
		// spans plus 0-3 buckets.
		farDelta := func(arg byte) time.Duration {
			return time.Duration(arg%64+1)*(wheelSpan/16) + time.Duration(arg>>6)*wheelWidth
		}

		// post files a fire-and-forget event on both sides.
		post := func(at time.Duration) {
			id := nextID
			nextID++
			e.Post(at, func() { engFired = append(engFired, id) })
			push(at, id, -1)
		}

		for i := 0; i+1 < len(script) && nextID < 512; i += 2 {
			op, arg := script[i]%17, script[i+1]
			delta := time.Duration(arg) * 64 * time.Nanosecond
			at := e.Now() + delta
			switch op {
			case 0: // schedule an owned timer
				own(at, 0)
			case 1, 2: // fire-and-forget post, often behind far posts
				post(at)
			case 3: // stop an owned timer
				if len(owned) == 0 {
					continue
				}
				k := int(arg) % len(owned)
				got := owned[k].Stop()
				want := ownedEv[k] >= 0
				if got != want {
					t.Fatalf("op %d: Stop(timer %d) = %v, reference pending = %v", i, k, got, want)
				}
				if want {
					ref.removeID(ownedEv[k])
					ownedEv[k] = -1
				}
			case 4: // reschedule an owned timer (pending, stopped, or fired)
				if len(owned) == 0 {
					continue
				}
				reschedule(int(arg)%len(owned), at)
			case 5, 15: // dispatch one event
				step(i)
			case 6: // far post in span-eighths: wheel parking, exact span boundary, overflow
				post(e.Now() + time.Duration(int(arg)%32+1)*(wheelSpan/8))
			case 7: // early post: within a few ns of now, usually the new head
				post(e.Now() + time.Duration(arg>>2))
			case 8: // schedule an owned timer far out: wheel or overflow
				own(e.Now()+farDelta(arg), 0)
			case 9: // reschedule an owned timer far out
				if len(owned) == 0 {
					continue
				}
				reschedule(int(arg)%len(owned), e.Now()+farDelta(arg))
			case 10: // periodic timer: near heap, wheel, or beyond the span
				every := time.Duration(arg)*(wheelSpan/64) + 1
				own(e.Now()+every, every)
			case 11: // advance the clock, stopping short of the next event
				to := e.Now() + farDelta(arg)
				if ref.Len() > 0 && ref[0].at <= to {
					to = ref[0].at - 1
				}
				if to >= e.Now() {
					e.AdvanceTo(to)
				}
			case 12: // fire-and-forget post far out
				post(e.Now() + farDelta(arg))
			case 13: // peek at the next event
				at, ok := e.NextEventAt()
				if ok != (ref.Len() > 0) || ok && at != ref[0].at {
					t.Fatalf("op %d: NextEventAt() = %v, %v; reference has %d pending", i, at, ok, ref.Len())
				}
			case 14: // reschedule an owned timer into the current bucket
				if len(owned) == 0 {
					continue
				}
				reschedule(int(arg)%len(owned), e.Now()+time.Duration(arg%8))
			case 16: // open the wheel now, re-filing the heap's far timers
				if e.wheel == nil {
					e.openWheel()
				}
			}
			if e.Pending() != ref.Len() {
				t.Fatalf("op %d: Pending() = %d, reference = %d", i, e.Pending(), ref.Len())
			}
		}

		for step(len(script)) {
		}

		if len(engFired) != len(refFired) {
			t.Fatalf("engine fired %d events, reference %d", len(engFired), len(refFired))
		}
		for i := range engFired {
			if engFired[i] != refFired[i] {
				t.Fatalf("fire order diverges at %d: engine %v, reference %v",
					i, engFired[i:min(i+8, len(engFired))], refFired[i:min(i+8, len(refFired))])
			}
		}
	})
}
