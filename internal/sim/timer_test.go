package sim

import (
	"testing"
	"time"
)

func TestReschedulePendingMoves(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	tm := e.After(time.Second, func() { at = e.Now() })
	tm.Reschedule(3 * time.Second)
	e.Run()
	if at != 3*time.Second {
		t.Fatalf("rescheduled timer fired at %v, want 3s", at)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after run, want 0", e.Pending())
	}
}

func TestRescheduleAfterFire(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.After(time.Second, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	tm.Reschedule(5 * time.Second)
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after re-arm, want 2", fired)
	}
}

func TestStopThenReschedule(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.After(time.Second, func() { fired++ })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	tm.Reschedule(2 * time.Second)
	if !tm.Pending() {
		t.Fatal("rescheduled timer not pending")
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (the rescheduled firing only)", fired)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("fired at %v, want 2s", e.Now())
	}
}

func TestRescheduleTakesFreshSeq(t *testing.T) {
	// A rescheduled timer must order after events already scheduled at
	// the same instant — exactly as if it were a brand-new timer.
	e := NewEngine()
	var order []string
	e.Schedule(time.Second, func() { order = append(order, "a") })
	tm := e.Schedule(2*time.Second, func() { order = append(order, "moved") })
	e.Schedule(time.Second, func() { order = append(order, "b") })
	tm.Reschedule(time.Second)
	e.Run()
	if got := len(order); got != 3 {
		t.Fatalf("fired %d events, want 3", got)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "moved" {
		t.Fatalf("co-timed order = %v, want [a b moved]", order)
	}
}

func TestPeriodicFires(t *testing.T) {
	e := NewEngine()
	var at []time.Duration
	var tm *Timer
	tm = e.Periodic(time.Second, func() {
		at = append(at, e.Now())
		if len(at) == 3 {
			tm.Stop()
		}
	})
	e.Run()
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if len(at) != len(want) {
		t.Fatalf("fired %d times, want %d", len(at), len(want))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestPeriodicStoppedInsideCallback(t *testing.T) {
	// Stop from inside the timer's own callback: nothing is queued at
	// that moment, but the re-arm must be suppressed.
	e := NewEngine()
	fired := 0
	var tm *Timer
	tm = e.Periodic(time.Second, func() {
		fired++
		if !tm.Stop() {
			t.Error("Stop inside own callback returned false")
		}
		if tm.Stop() {
			t.Error("second Stop inside callback returned true")
		}
	})
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestPeriodicRescheduleInsideCallback(t *testing.T) {
	// Reschedule from inside the callback overrides the next firing;
	// the period cadence resumes from the new time.
	e := NewEngine()
	var at []time.Duration
	var tm *Timer
	tm = e.Periodic(time.Second, func() {
		at = append(at, e.Now())
		switch len(at) {
		case 1:
			tm.Reschedule(5 * time.Second)
		case 3:
			tm.Stop()
		}
	})
	e.Run()
	want := []time.Duration{time.Second, 5 * time.Second, 6 * time.Second}
	if len(at) != len(want) {
		t.Fatalf("fired %d times, want %d (%v)", len(at), len(want), at)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestPostFreeListAliasing(t *testing.T) {
	// A pooled timer is recycled the moment it fires; the next Post must
	// reuse the struct without firing the previous closure.
	e := NewEngine()
	var order []string
	e.Post(time.Second, func() { order = append(order, "first") })
	e.Step()
	reused := e.free
	if reused == nil {
		t.Fatal("fired pooled timer was not returned to the free list")
	}
	if reused.fn != nil {
		t.Fatal("recycled timer retains its closure")
	}
	e.Post(2*time.Second, func() { order = append(order, "second") })
	if e.free != nil {
		t.Fatal("second Post did not draw from the free list")
	}
	e.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want [first second]", order)
	}
}

func TestPostRepostFromCallback(t *testing.T) {
	// The callback of a pooled timer may Post again and reuse the very
	// timer that is firing.
	e := NewEngine()
	fired := 0
	var fn func()
	fn = func() {
		fired++
		if fired < 5 {
			e.PostAfter(time.Second, fn)
		}
	}
	e.PostAfter(time.Second, fn)
	e.Run()
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
}

func TestStopRemovesEagerly(t *testing.T) {
	// Stopping a timer removes it from the queue immediately — Pending
	// never counts cancelled work.
	e := NewEngine()
	tm := e.After(time.Second, func() {})
	before := e.Pending()
	tm.Stop()
	if e.Pending() != before-1 {
		t.Fatalf("Pending went %d -> %d on Stop, want eager removal", before, e.Pending())
	}
}

// --- timing wheel ---------------------------------------------------------

// The tests below open the wheel first: an engine queueing so few
// timers would otherwise keep them all on the heap alone.

func TestWheelFarChainEvent(t *testing.T) {
	// A posted event far beyond the near window parks on the wheel and
	// still fires in global (time, seq) order with near events.
	e := NewEngine()
	e.openWheel()
	var order []string
	e.Post(10*wheelWidth, func() { order = append(order, "far") })
	if e.wheelCnt != 1 {
		t.Fatalf("wheelCnt = %d after a far post, want 1", e.wheelCnt)
	}
	e.Schedule(wheelWidth/2, func() { order = append(order, "near") })
	e.Schedule(10*wheelWidth, func() { order = append(order, "co-timed-later") })
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3 (parked events counted)", e.Pending())
	}
	e.Run()
	if len(order) != 3 || order[0] != "near" || order[1] != "far" || order[2] != "co-timed-later" {
		t.Fatalf("order = %v, want [near far co-timed-later]", order)
	}
}

func TestWheelOverflow(t *testing.T) {
	// An event beyond the wheel span lands in the overflow list and is
	// re-filed when the cursor wraps; interleave nearer events so the
	// wheel genuinely revolves.
	e := NewEngine()
	e.openWheel()
	var got []time.Duration
	farAt := 3 * wheelSpan
	e.Post(farAt, func() { got = append(got, e.Now()) })
	if e.overflowCnt != 1 {
		t.Fatalf("overflowCnt = %d after a post three spans out, want 1", e.overflowCnt)
	}
	var tick func()
	step := wheelSpan / 16
	tick = func() {
		got = append(got, e.Now())
		if e.Now()+step < farAt+step {
			e.Post(e.Now()+step, tick)
		}
	}
	e.Post(step, tick)
	e.Run()
	if got[len(got)-1] != farAt {
		t.Fatalf("overflow event fired at %v, want %v (fired %d events)", got[len(got)-1], farAt, len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("time went backward: %v after %v", got[i], got[i-1])
		}
	}
}

func TestWheelSparseSchedule(t *testing.T) {
	// With the wheel empty, parking a far event jumps the window forward
	// instead of walking thousands of empty buckets (behaviorally: the
	// event still fires at its time, cheap or not).
	e := NewEngine()
	e.openWheel()
	fired := time.Duration(-1)
	e.Post(time.Second, func() { fired = e.Now() })
	if e.overflowCnt != 1 {
		t.Fatalf("overflowCnt = %d after a post 1 s out, want 1", e.overflowCnt)
	}
	e.Run()
	if fired != time.Second {
		t.Fatalf("sparse far event fired at %v, want 1s", fired)
	}
}

func TestAdvanceToRespectsParkedEvents(t *testing.T) {
	e := NewEngine()
	e.openWheel()
	e.Post(5*wheelWidth, func() {})
	if e.wheelCnt != 1 {
		t.Fatalf("wheelCnt = %d after a far post, want 1", e.wheelCnt)
	}
	// Advancing short of the parked event is fine.
	e.AdvanceTo(2 * wheelWidth)
	if e.Now() != 2*wheelWidth {
		t.Fatalf("Now() = %v, want %v", e.Now(), 2*wheelWidth)
	}
	// Advancing past it must panic: the event would be skipped.
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo past a parked event did not panic")
		}
	}()
	e.AdvanceTo(6 * wheelWidth)
}

func TestNextEventAtSeesParkedEvents(t *testing.T) {
	e := NewEngine()
	e.openWheel()
	e.Post(7*wheelWidth, func() {})
	if e.wheelCnt != 1 {
		t.Fatalf("wheelCnt = %d after a far post, want 1", e.wheelCnt)
	}
	at, ok := e.NextEventAt()
	if !ok || at != 7*wheelWidth {
		t.Fatalf("NextEventAt() = %v, %v; want %v, true", at, ok, 7*wheelWidth)
	}
}

// TestDueNow: DueNow sees an event queued for the current instant and
// nothing else, neither a later event in the near heap nor a timer
// parked on the wheel.
func TestDueNow(t *testing.T) {
	e := NewEngine()
	if e.DueNow() {
		t.Fatal("an empty engine has an event due now")
	}
	e.Post(0, func() {})
	if !e.DueNow() {
		t.Fatal("the near heap's root is at now, but DueNow is false")
	}
	e.Run()
	e.Post(e.Now()+10, func() {})
	if e.DueNow() {
		t.Fatal("the near heap's root is later than now, but DueNow is true")
	}
	e.Run()
	e.openWheel()
	e.Post(e.Now()+5*wheelWidth, func() {})
	if len(e.pq) != 0 || e.Pending() != 1 {
		t.Fatalf("near heap holds %d of %d events, want the one event parked", len(e.pq), e.Pending())
	}
	if e.DueNow() {
		t.Fatal("a parked timer is due now")
	}
	e.AdvanceTo(e.Now() + 4*wheelWidth)
	if e.DueNow() {
		t.Fatal("a parked timer is due now after AdvanceTo")
	}
	e.Run()
}

// --- posts ----------------------------------------------------------------

func TestChainFIFOWithPlainTimers(t *testing.T) {
	// Co-timed events fire in scheduling order whether they were posted
	// fire-and-forget or scheduled with a handle.
	e := NewEngine()
	var order []int
	rec := func(i int) func() { return func() { order = append(order, i) } }
	e.Schedule(time.Second, rec(0))
	e.Post(time.Second, rec(1))
	e.Schedule(time.Second, rec(2))
	e.Post(time.Second, rec(3))
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("co-timed post/schedule order = %v, want [0 1 2 3]", order)
		}
	}
}

func TestChainBackwardPostPanics(t *testing.T) {
	// Posts come in any time order, but never before now.
	e := NewEngine()
	e.Post(2*time.Second, func() {})
	e.RunUntil(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("Post before now did not panic")
		}
	}()
	e.Post(time.Second-1, func() {})
}

func TestChainPostFromOwnCallback(t *testing.T) {
	// A posted event may post its successor while firing — the pattern
	// every serialized device resource uses — and may reuse its own
	// pooled timer doing so.
	e := NewEngine()
	fired := 0
	var fn func()
	fn = func() {
		fired++
		if fired < 8 {
			e.Post(e.Now()+time.Millisecond, fn)
		}
	}
	e.Post(time.Millisecond, fn)
	e.Run()
	if fired != 8 {
		t.Fatalf("fired = %d, want 8", fired)
	}
}

// --- steady-state allocation guarantees -----------------------------------

func TestEngineScheduleAllocFree(t *testing.T) {
	// The Post → fire → recycle cycle must not allocate at steady state:
	// the Timer comes from the free list and the heap slot is reused.
	e := NewEngine()
	var fn func()
	fn = func() { e.PostAfter(time.Microsecond, fn) }
	e.PostAfter(time.Microsecond, fn)
	e.Step() // warm the free list and the heap slice
	if n := testing.AllocsPerRun(1000, func() { e.Step() }); n != 0 {
		t.Fatalf("steady-state Post/fire cycle allocates %v per event, want 0", n)
	}
}

func TestPeriodicAllocFree(t *testing.T) {
	e := NewEngine()
	e.Periodic(time.Microsecond, func() {})
	e.Step()
	if n := testing.AllocsPerRun(1000, func() { e.Step() }); n != 0 {
		t.Fatalf("periodic re-arm allocates %v per tick, want 0", n)
	}
}

// --- kernel microbenchmarks -----------------------------------------------

// BenchmarkEngineSchedule measures the steady-state schedule → dispatch
// cycle: 64 concurrent pooled event streams re-posting themselves. Zero
// allocs/op is asserted by TestEngineScheduleAllocFree.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	const fan = 64
	var fn func()
	fn = func() { e.PostAfter(time.Microsecond, fn) }
	for i := 1; i <= fan; i++ {
		e.PostAfter(time.Duration(i)*time.Microsecond/fan, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
