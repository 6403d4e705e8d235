package power

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestMeterSumsComponents(t *testing.T) {
	m := NewMeter(0, []string{"controller", "die0"})
	a, b := Component(0), Component(1)
	m.Set(a, MicroW(2), 0)
	if got := m.Instant(0); got != 2 {
		t.Fatalf("Instant = %v, want 2", got)
	}
	m.Set(b, MicroW(0.3), 0)
	if got := m.Instant(0); got != 2.3 {
		t.Fatalf("Instant = %v, want 2.3", got)
	}
	m.Set(a, MicroW(1), 0)
	if got := m.Instant(0); got != 1.3 {
		t.Fatalf("Instant = %v, want 1.3", got)
	}
}

func TestMeterEnergyIntegration(t *testing.T) {
	m := NewMeter(0, []string{"x"})
	c := Component(0)
	m.Set(c, MicroW(10), 0)
	if got := m.Energy(2 * time.Second); got != 20 {
		t.Fatalf("Energy after 2s at 10W = %v, want 20 J", got)
	}
	m.Set(c, MicroW(5), 2*time.Second)
	if got := m.Energy(4 * time.Second); got != 30 {
		t.Fatalf("Energy = %v, want 30 J (20 + 5W×2s)", got)
	}
}

func TestMicroW(t *testing.T) {
	for _, tc := range []struct {
		w    float64
		want int64
	}{{0, 0}, {0.3, 300000}, {1.2345674, 1234567}, {1.2345675, 1234568}, {15, 15000000}} {
		if got := MicroW(tc.w); got != tc.want {
			t.Errorf("MicroW(%v) = %d, want %d", tc.w, got, tc.want)
		}
	}
	for _, w := range []float64{-1e-9, -1, math.NaN(), math.Inf(1), 1e13} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MicroW(%v) did not panic", w)
				}
			}()
			MicroW(w)
		}()
	}
}

func TestMeterCoTimedUpdatesOrderIndependent(t *testing.T) {
	// Two updates at the same instant must charge the old rates up to
	// that instant regardless of update order.
	mk := func(order []int) float64 {
		m := NewMeter(0, []string{"a", "b"})
		cs := []Component{0, 1}
		m.Set(cs[0], MicroW(1), 0)
		m.Set(cs[1], MicroW(2), 0)
		for _, i := range order {
			m.Set(cs[i], MicroW(10), time.Second)
		}
		return m.Energy(time.Second)
	}
	if e1, e2 := mk([]int{0, 1}), mk([]int{1, 0}); e1 != e2 {
		t.Fatalf("energy depends on co-timed update order: %v vs %v", e1, e2)
	}
}

func TestMeterTimeBackwardPanics(t *testing.T) {
	m := NewMeter(time.Second, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backward time")
		}
	}()
	m.Instant(0)
}

func TestMeterBreakdownAndNames(t *testing.T) {
	names := []string{"ctrl", "iface"}
	m := NewMeter(0, names)
	m.Set(0, MicroW(1.5), 0)
	m.Set(1, MicroW(0.5), 0)
	if got := m.Names(); &got[0] != &names[0] || len(got) != 2 {
		t.Fatalf("Names = %q does not share the table given to NewMeter", got)
	}
	bd := m.EnergyBreakdown(2 * time.Second)
	if len(bd) != 2 || bd[0] != 3 || bd[1] != 1 {
		t.Fatalf("EnergyBreakdown = %v, want [3 1]", bd)
	}
	bd[0] = 99
	if m.EnergyBreakdown(2 * time.Second)[0] == 99 {
		t.Fatal("EnergyBreakdown aliases internal state")
	}
}

// sumUWns returns the exact sum of m's component energies up to now.
func sumUWns(m *Meter, now time.Duration) uwns {
	var sum uwns
	for i := range m.comps {
		sum.add(m.comps[i].at(now))
	}
	return sum
}

func TestUncappedAdmitsImmediately(t *testing.T) {
	r := Uncapped()
	for i := 0; i < 3; i++ {
		if d := r.Admit(0, 1e9); d != 0 {
			t.Fatalf("uncapped delay = %v, want 0", d)
		}
	}
	if c := r.Credits(time.Second); c != 0 {
		t.Fatalf("uncapped credits = %v, want 0 (nothing is tracked)", c)
	}
}

func TestRegulatorBurstThenThrottle(t *testing.T) {
	// 5 W sustained, 10 s window → 50 J burst.
	r := NewRegulator(5, 10*time.Second, 0)
	if d := r.Admit(0, 50); d != 0 {
		t.Fatalf("burst admit delayed %v, want 0", d)
	}
	// Bucket empty: a 10 J op must wait 2 s at 5 W.
	if d := r.Admit(0, 10); d != 2*time.Second {
		t.Fatalf("throttled delay = %v, want 2s", d)
	}
}

func TestRegulatorRefills(t *testing.T) {
	r := NewRegulator(5, 10*time.Second, 0)
	r.Admit(0, 50) // drain
	// After 4 s, 20 J accrued.
	if got := r.Credits(4 * time.Second); math.Abs(got-20) > 1e-9 {
		t.Fatalf("credits = %v, want 20", got)
	}
	if d := r.Admit(4*time.Second, 20); d != 0 {
		t.Fatalf("delay = %v, want 0", d)
	}
}

func TestRegulatorBurstCapped(t *testing.T) {
	r := NewRegulator(5, 10*time.Second, 0)
	// A century idle must not accumulate more than one window of burst.
	if got := r.Credits(100 * 365 * 24 * time.Hour); got > 50+1e-9 {
		t.Fatalf("credits = %v, want ≤ 50", got)
	}
}

func TestRegulatorZeroHeadroom(t *testing.T) {
	r := NewRegulator(0, 10*time.Second, 0)
	d := r.Admit(0, 1)
	if d <= 0 {
		t.Fatalf("zero-headroom regulator admitted immediately")
	}
	// Must not deadlock: delay is finite and further admits still work.
	d2 := r.Admit(d, 1)
	if d2 <= 0 {
		t.Fatal("second admit at zero headroom returned no delay")
	}
}

func TestRegulatorNegativeEnergyPanics(t *testing.T) {
	r := NewRegulator(5, time.Second, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Admit(0, -1)
}

// Property: over any sequence of admissions executed at their granted
// times, long-run average admitted power never exceeds the sustained rate
// plus the burst allowance.
func TestRegulatorRateProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		const rate = 8.0
		window := 2 * time.Second
		r := NewRegulator(rate, window, 0)
		now := time.Duration(0)
		var spent float64
		for _, o := range ops {
			j := float64(o%32) + 1
			d := r.Admit(now, j)
			now += d
			spent += j
		}
		if now == 0 {
			return spent <= rate*window.Seconds()+1e-6
		}
		avg := spent / now.Seconds()
		// average ≤ rate + burst amortized over elapsed time
		return avg <= rate+rate*window.Seconds()/now.Seconds()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRollingAverageConstantPower(t *testing.T) {
	a := newRollingAverage(10 * time.Second)
	for i := 0; i <= 20; i++ {
		ts := time.Duration(i) * time.Second
		a.Record(ts, 7*ts.Seconds()) // 7 W constant
	}
	if got := a.Average(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("Average = %v, want 7", got)
	}
}

func TestRollingAverageWindowing(t *testing.T) {
	// 0 W for 10 s, then 10 W for 10 s. A 10 s window at t=20 sees only
	// the 10 W segment.
	a := newRollingAverage(10 * time.Second)
	a.Record(0, 0)
	a.Record(10*time.Second, 0)
	a.Record(20*time.Second, 100)
	if got := a.Average(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("Average = %v, want 10", got)
	}
}

func TestRollingAveragePartialWindow(t *testing.T) {
	a := newRollingAverage(10 * time.Second)
	a.Record(0, 0)
	a.Record(2*time.Second, 6) // 3 W over the only 2 s we have
	if got := a.Average(); math.Abs(got-3) > 1e-9 {
		t.Fatalf("Average = %v, want 3", got)
	}
}

func TestRollingAverageInterpolatesBoundary(t *testing.T) {
	// Checkpoints at 0 and 20 s, window 10 s: boundary at t=10 must be
	// interpolated inside the single long segment (5 W constant).
	a := newRollingAverage(10 * time.Second)
	a.Record(0, 0)
	a.Record(20*time.Second, 100)
	if got := a.Average(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Average = %v, want 5", got)
	}
}

func TestRollingAverageEmpty(t *testing.T) {
	a := newRollingAverage(time.Second)
	if got := a.Average(); got != 0 {
		t.Fatalf("Average of empty = %v, want 0", got)
	}
	a.Record(0, 5)
	if got := a.Average(); got != 0 {
		t.Fatalf("Average of single point = %v, want 0", got)
	}
}

func TestRollingAverageBackwardTimePanics(t *testing.T) {
	a := newRollingAverage(time.Second)
	a.Record(time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a.Record(0, 0)
}

func TestRegulatorMatchesRollingAverageUnderLoad(t *testing.T) {
	// Drive a saturated consumer through the regulator and verify the
	// rolling-average power it achieves settles at the sustained rate.
	const rate = 6.0
	window := time.Second
	r := NewRegulator(rate, window, 0)
	avg := newRollingAverage(10 * time.Second)
	now := time.Duration(0)
	var energy float64
	avg.Record(0, 0)
	for i := 0; i < 10000; i++ {
		const opJ = 0.05
		d := r.Admit(now, opJ)
		now += d
		energy += opJ
		avg.Record(now, energy)
	}
	got := avg.Average()
	if math.Abs(got-rate) > 0.5 {
		t.Fatalf("sustained average = %.3f W, want ≈ %.1f W", got, rate)
	}
}

// rollingAverage reports average power over a trailing window from
// cumulative energy checkpoints: the reference that
// TestRegulatorMatchesRollingAverageUnderLoad holds the regulator to.
type rollingAverage struct {
	window time.Duration
	ts     []time.Duration
	es     []float64 // cumulative joules at ts[i]
}

// newRollingAverage returns a tracker over the given window.
func newRollingAverage(window time.Duration) *rollingAverage {
	if window <= 0 {
		panic("power: rolling window must be positive")
	}
	return &rollingAverage{window: window}
}

// Record notes that cumulative energy was e joules at time t. Times must
// be nondecreasing.
func (a *rollingAverage) Record(t time.Duration, e float64) {
	if n := len(a.ts); n > 0 && t < a.ts[n-1] {
		panic("power: rolling average time went backward")
	}
	a.ts = append(a.ts, t)
	a.es = append(a.es, e)
	// Drop checkpoints that have fallen out of the window, keeping one
	// before the boundary so interpolation at the window edge works.
	cut := t - a.window
	i := 0
	for i+1 < len(a.ts) && a.ts[i+1] <= cut {
		i++
	}
	if i > 0 {
		a.ts = a.ts[i:]
		a.es = a.es[i:]
	}
}

// Average returns the average power in watts over the trailing window
// ending at the last recorded time. With fewer than two checkpoints or
// zero elapsed time it returns 0.
func (a *rollingAverage) Average() float64 {
	n := len(a.ts)
	if n < 2 {
		return 0
	}
	end := a.ts[n-1]
	start := end - a.window
	if start < a.ts[0] {
		start = a.ts[0]
	}
	e0 := a.interp(start)
	dt := (end - start).Seconds()
	if dt <= 0 {
		return 0
	}
	return (a.es[n-1] - e0) / dt
}

func (a *rollingAverage) interp(t time.Duration) float64 {
	// Linear interpolation of cumulative energy at time t; callers
	// guarantee a.ts[0] <= t <= a.ts[len-1].
	for i := len(a.ts) - 1; i > 0; i-- {
		if a.ts[i-1] <= t {
			t0, t1 := a.ts[i-1], a.ts[i]
			if t1 == t0 {
				return a.es[i]
			}
			frac := float64(t-t0) / float64(t1-t0)
			return a.es[i-1] + frac*(a.es[i]-a.es[i-1])
		}
	}
	return a.es[0]
}

// TestMeterDiesMatchPerDieComponents: a meter with one component per
// die and one whose single "dies" component draws the busy dies' sum end
// with the same energy to the bit, and in each Energy is exactly the sum
// of the components' µW·ns.
func TestMeterDiesMatchPerDieComponents(t *testing.T) {
	const units = 7
	w := MicroW(0.123456789)
	perNames := []string{"controller"}
	dies := make([]Component, units)
	for i := range dies {
		perNames = append(perNames, fmt.Sprintf("die%d", i))
		dies[i] = Component(1 + i)
	}
	per, one := NewMeter(0, perNames), NewMeter(0, []string{"controller", "dies"})
	per.Set(0, MicroW(1.1), 0)
	one.Set(0, MicroW(1.1), 0)
	all := Component(1)
	busy := 0
	// Units start and end in overlapping waves, several at one instant.
	for step, k := range []int{3, 2, -1, 3, -4, 2, -5} {
		now := time.Duration(step+1) * 333 * time.Microsecond
		if k > 0 {
			for i := busy; i < busy+k; i++ {
				per.Set(dies[i], w, now)
			}
		} else {
			for i := busy - 1; i >= busy+k; i-- {
				per.Set(dies[i], 0, now)
			}
		}
		busy += k
		one.Set(all, int64(busy)*w, now)
		if per.Instant(now) != one.Instant(now) {
			t.Fatalf("step %d: total %v per die, %v as one", step, per.Instant(now), one.Instant(now))
		}
	}
	end := 3 * time.Millisecond
	if a, b := per.Energy(end), one.Energy(end); a != b {
		t.Fatalf("energy %v per die, %v as one", a, b)
	}
	for _, m := range []*Meter{per, one} {
		if total, sum := m.energy(end), sumUWns(m, end); total != sum {
			t.Fatalf("Energy %v µW·ns, components' sum %v µW·ns", total, sum)
		}
	}
	var perDies uwns
	for _, c := range dies {
		perDies.add(per.comps[c].at(end))
	}
	if got := one.comps[all].at(end); got != perDies {
		t.Fatalf("dies component %v µW·ns, per-die sum %v µW·ns", got, perDies)
	}
}
