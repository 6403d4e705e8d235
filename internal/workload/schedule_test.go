package workload

import (
	"testing"
	"time"

	"wattio/internal/sim"
)

// TestScheduleRateSteps: each segment's arrival count is its rate x
// duration within four standard deviations of the Poisson count (the
// boundary tick discards the pending draw, never fires an arrival, and
// resamples at the new rate).
func TestScheduleRateSteps(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	steps := []RateStep{
		{At: 0, IOPS: 1000},
		{At: 500 * time.Millisecond, IOPS: 200},
		{At: 800 * time.Millisecond, IOPS: 2000},
	}
	counts := make([]int, len(steps))
	a, err := StartArrivalsSchedule(eng, sim.NewRNG(1), steps, time.Second, func() {
		now := eng.Now()
		seg := 0
		for i := 1; i < len(steps); i++ {
			if now > steps[i].At {
				seg = i
			}
		}
		counts[seg]++
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Segment spans: 500ms at 1000/s, 300ms at 200/s, 200ms at 2000/s.
	want := []float64{500, 60, 400}
	total := 0
	for i, w := range want {
		if d := float64(counts[i]) - w; d*d > 16*w {
			t.Fatalf("segment %d fired %d arrivals, want %v ± 4σ (all: %v)", i, counts[i], w, counts)
		}
		total += counts[i]
	}
	if a.Count() != int64(total) {
		t.Fatalf("Count() = %d, want %d", a.Count(), total)
	}
}

// TestScheduleMidRunStartPicksStepInForce: a process started after a
// boundary (a lane admitted by churn) runs at the step in force, not
// the schedule's first rate.
func TestScheduleMidRunStartPicksStepInForce(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	steps := []RateStep{
		{At: 0, IOPS: 10},
		{At: 100 * time.Millisecond, IOPS: 1000},
	}
	var n int
	eng.Post(200*time.Millisecond, func() {
		if _, err := StartArrivalsSchedule(eng, sim.NewRNG(2), steps, 300*time.Millisecond, func() { n++ }); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	// 100ms at 1000/s is 100 ± 40 at 4σ; at 10/s the window would
	// expect one arrival.
	if n < 60 || n > 140 {
		t.Fatalf("mid-run process fired %d arrivals, want about 100", n)
	}
}

// TestScheduleValidation: malformed schedules fail loudly.
func TestScheduleValidation(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(3)
	fn := func() {}
	cases := []struct {
		name  string
		rates []RateStep
		until time.Duration
	}{
		{"empty schedule", nil, time.Second},
		{"non-positive rate", []RateStep{{At: 0, IOPS: 0}}, time.Second},
		{"non-increasing steps", []RateStep{{At: 0, IOPS: 1}, {At: 0, IOPS: 2}}, time.Second},
		{"past deadline", []RateStep{{At: 0, IOPS: 1}}, 0},
	}
	for _, tc := range cases {
		if _, err := StartArrivalsSchedule(eng, rng, tc.rates, tc.until, fn); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := StartArrivalsSchedule(eng, rng, []RateStep{{At: 0, IOPS: 1}}, time.Second, nil); err == nil {
		t.Error("nil callback: accepted")
	}
}
