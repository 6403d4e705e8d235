package core

import (
	"testing"
	"time"
)

func latSample(ps int, w, mbps float64, avg, p99 time.Duration) Sample {
	s := s("D", ps, 256, 64, w, mbps)
	s.AvgLat = avg
	s.P99Lat = p99
	return s
}

func sloModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel("D", []Sample{
		latSample(0, 8.0, 3500, 1*time.Millisecond, 2*time.Millisecond),
		latSample(1, 7.0, 2500, 1200*time.Microsecond, 3*time.Millisecond),
		latSample(2, 6.0, 1900, 2*time.Millisecond, 12*time.Millisecond),
		latSample(2, 5.5, 900, 800*time.Microsecond, 1500*time.Microsecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSLOMeets(t *testing.T) {
	t.Parallel()
	x := latSample(0, 8, 3500, time.Millisecond, 2*time.Millisecond)
	cases := []struct {
		slo  SLO
		want bool
	}{
		{SLO{}, true},
		{SLO{MaxAvgLat: 2 * time.Millisecond}, true},
		{SLO{MaxAvgLat: 500 * time.Microsecond}, false},
		{SLO{MaxP99Lat: time.Millisecond}, false},
		{SLO{MinMBps: 4000}, false},
		{SLO{MaxAvgLat: 2 * time.Millisecond, MaxP99Lat: 5 * time.Millisecond, MinMBps: 1000}, true},
	}
	for i, tc := range cases {
		if got := tc.slo.Meets(x); got != tc.want {
			t.Errorf("case %d (%v): Meets = %v, want %v", i, tc.slo, got, tc.want)
		}
	}
}

func TestBestUnderPowerSLO(t *testing.T) {
	t.Parallel()
	m := sloModel(t)
	// Budget 7 W with a p99 SLO of 5 ms: the ps1 point qualifies, the
	// ps2/1900 point (12 ms tail) does not.
	best, ok := m.BestUnderPowerSLO(7.0, SLO{MaxP99Lat: 5 * time.Millisecond})
	if !ok || best.ThroughputMBps != 2500 {
		t.Fatalf("best = %+v ok=%v, want the 2500 MBps point", best, ok)
	}
	// A tight tail SLO forces the low-power shaped point.
	best, ok = m.BestUnderPowerSLO(7.0, SLO{MaxP99Lat: 1600 * time.Microsecond})
	if !ok || best.ThroughputMBps != 900 {
		t.Fatalf("best = %+v ok=%v, want the 900 MBps point", best, ok)
	}
	if _, ok := m.BestUnderPowerSLO(4, SLO{}); ok {
		t.Error("impossible budget satisfied")
	}
	if _, ok := m.BestUnderPowerSLO(10, SLO{MaxP99Lat: time.Microsecond}); ok {
		t.Error("impossible SLO satisfied")
	}
}

func TestMinPowerSLO(t *testing.T) {
	t.Parallel()
	m := sloModel(t)
	best, ok := m.MinPowerSLO(SLO{MinMBps: 2000, MaxP99Lat: 5 * time.Millisecond})
	if !ok || best.PowerW != 7.0 {
		t.Fatalf("best = %+v ok=%v, want the 7 W point", best, ok)
	}
	if _, ok := m.MinPowerSLO(SLO{MinMBps: 9999}); ok {
		t.Error("impossible throughput floor satisfied")
	}
}

func TestSLOString(t *testing.T) {
	t.Parallel()
	if got := (SLO{}).String(); got != "unconstrained" {
		t.Errorf("empty SLO = %q", got)
	}
	got := SLO{MaxAvgLat: time.Millisecond, MinMBps: 100}.String()
	if got == "" || got == "unconstrained" {
		t.Errorf("SLO string = %q", got)
	}
}
