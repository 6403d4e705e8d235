package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 10, 5} {
		d := d
		e.After(d, func() { got = append(got, d) })
	}
	e.Run()
	want := []time.Duration{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		e.Schedule(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: got %v", got)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := NewEngine()
	e.After(7*time.Millisecond, func() {
		if e.Now() != 7*time.Millisecond {
			t.Errorf("Now() = %v inside event, want 7ms", e.Now())
		}
	})
	e.Run()
	if e.Now() != 7*time.Millisecond {
		t.Errorf("Now() = %v after run, want 7ms", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.After(1*time.Second, func() { fired++ })
	e.After(3*time.Second, func() { fired++ })
	e.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.RunUntil(5 * time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d after second run, want 2", fired)
	}
}

func TestEngineRunUntilFiresEventAtDeadline(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(2*time.Second, func() { fired = true })
	e.RunUntil(2 * time.Second)
	if !fired {
		t.Fatal("event exactly at deadline did not fire")
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine()
	tm := e.After(time.Second, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop on fired timer returned true")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.After(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(time.Millisecond, func() {})
}

// TestClockNeverRunsBackward covers the two clock moves that take a
// caller's time: RunUntil to an earlier deadline leaves the clock where
// it is, and AdvanceTo into the past panics.
func TestClockNeverRunsBackward(t *testing.T) {
	e := NewEngine()
	e.RunUntil(time.Second)
	e.RunUntil(time.Millisecond)
	if e.Now() != time.Second {
		t.Fatalf("RunUntil to an earlier deadline moved the clock to %v", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past did not panic")
		}
	}()
	e.AdvanceTo(time.Millisecond)
}

func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling nil func did not panic")
		}
	}()
	e.Schedule(0, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	e.After(-time.Second, func() {})
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var order []string
	e.After(time.Millisecond, func() {
		order = append(order, "a")
		e.After(time.Millisecond, func() { order = append(order, "c") })
	})
	e.After(1500*time.Microsecond, func() { order = append(order, "b") })
	e.Run()
	want := "a b c"
	got := order[0] + " " + order[1] + " " + order[2]
	if got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock never runs backward.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []time.Duration
		for _, d := range delays {
			d := time.Duration(d) * time.Microsecond
			e.After(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Stream("noise")
	b := NewRNG(42).Stream("noise")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, stream) diverged")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	root := NewRNG(42)
	a := root.Stream("a")
	b := root.Stream("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams a and b agree on %d/64 draws; not independent", same)
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 agree on %d/64 draws", same)
	}
}

func TestGaussianMoments(t *testing.T) {
	g := NewRNG(7).Stream("gauss")
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := g.Gaussian(5, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if mean < 4.95 || mean > 5.05 {
		t.Errorf("mean = %.4f, want ≈ 5", mean)
	}
	if variance < 3.8 || variance > 4.2 {
		t.Errorf("variance = %.4f, want ≈ 4", variance)
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(7).Stream("exp")
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := g.Exponential(3)
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 2.9 || mean > 3.1 {
		t.Errorf("mean = %.4f, want ≈ 3", mean)
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := g.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
