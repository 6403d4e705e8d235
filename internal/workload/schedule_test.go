package workload

import (
	"testing"
	"time"

	"wattio/internal/sim"
)

// TestScheduleRateSteps: uniform arrivals have a deterministic gap, so
// each segment's count is exactly rate x duration (the boundary tick
// discards the pending draw, never fires an arrival, and resamples at
// the new rate).
func TestScheduleRateSteps(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	steps := []RateStep{
		{At: 0, IOPS: 1000},
		{At: 500 * time.Millisecond, IOPS: 200},
		{At: 800 * time.Millisecond, IOPS: 2000},
	}
	counts := make([]int, len(steps))
	a, err := StartArrivalsSchedule(eng, sim.NewRNG(1), OpenUniform, steps, time.Second, func() {
		now := eng.Now()
		seg := 0
		for i := 1; i < len(steps); i++ {
			if now > steps[i].At {
				seg = i
			}
		}
		counts[seg]++
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Segment spans: 500ms at 1000/s, 300ms at 200/s, 200ms at 2000/s.
	// The first arrival of each segment lands one full gap after the
	// boundary, so the count is floor(span x rate).
	want := []int{500, 60, 400}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("segment %d fired %d arrivals, want %d (all: %v)", i, counts[i], w, counts)
		}
	}
	if a.Count() != int64(500+60+400) {
		t.Fatalf("Count() = %d, want %d", a.Count(), 500+60+400)
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
		if _, err := StartArrivalsSchedule(eng, sim.NewRNG(2), OpenUniform, steps, 300*time.Millisecond, func() { n++ }, nil); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	// 100ms at 1000/s; at 10/s the window would fit no arrival at all.
	if n != 100 {
		t.Fatalf("mid-run process fired %d arrivals, want 100", n)
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
		kind  Arrival
		rates []RateStep
		until time.Duration
	}{
		{"closed kind", Closed, []RateStep{{At: 0, IOPS: 100}}, time.Second},
		{"empty schedule", OpenPoisson, nil, time.Second},
		{"non-positive rate", OpenPoisson, []RateStep{{At: 0, IOPS: 0}}, time.Second},
		{"non-increasing steps", OpenPoisson, []RateStep{{At: 0, IOPS: 1}, {At: 0, IOPS: 2}}, time.Second},
		{"past deadline", OpenPoisson, []RateStep{{At: 0, IOPS: 1}}, 0},
	}
	for _, tc := range cases {
		if _, err := StartArrivalsSchedule(eng, rng, tc.kind, tc.rates, tc.until, fn, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := StartArrivalsSchedule(eng, rng, OpenPoisson, []RateStep{{At: 0, IOPS: 1}}, time.Second, nil, nil); err == nil {
		t.Error("nil callback: accepted")
	}
}
