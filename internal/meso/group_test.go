package meso

import (
	"math"
	"testing"
	"time"
)

func TestGroupPoolBackfillConservation(t *testing.T) {
	t.Parallel()
	p := NewGroupPool(1000, 4096)
	key := GroupKey{Cohort: 0, State: 2}

	// Uncalibrated members accrue nothing live, only pending spans.
	p.SetCount(key, 100, 0)
	if got := p.EnergyJ(500 * time.Millisecond); got != 0 {
		t.Fatalf("uncalibrated bucket accrued %v J live", got)
	}
	p.SetCount(key, 60, 500*time.Millisecond) // splits the pending span

	spans := p.Calibrate(key, 5.0, 1*time.Second)
	// 100 lanes × 0.5 s + 60 lanes × 0.5 s = 80 lane-seconds at 5 W.
	var sum float64
	for _, s := range spans {
		sum += s.Joules
	}
	if want := 5.0 * 80; math.Abs(sum-want) > 1e-9 {
		t.Fatalf("backfill sums to %v J, want %v", sum, want)
	}
	// Backfill is owed to the caller, not the live ledger: forward
	// accrual starts at the calibration instant.
	if got := p.EnergyJ(1 * time.Second); got != 0 {
		t.Fatalf("ledger jumped by %v J at calibration", got)
	}
	if got, want := p.EnergyJ(2*time.Second), 5.0*60*1.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("live accrual %v J, want %v", got, want)
	}
	if p.Members() != 60 {
		t.Fatalf("Members = %d, want 60", p.Members())
	}
}

func TestGroupPoolRecalibrationRunningMean(t *testing.T) {
	t.Parallel()
	p := NewGroupPool(1000, 4096)
	key := GroupKey{Cohort: 1, State: 0}
	p.SetCount(key, 10, 0)
	if spans := p.Calibrate(key, 4.0, 1*time.Second); len(spans) != 1 {
		t.Fatalf("first calibration returned %d spans, want 1", len(spans))
	}
	// Second measurement settles the span under the old op then refines
	// it: mean(4, 6) = 5 W forward.
	if spans := p.Calibrate(key, 6.0, 2*time.Second); spans != nil {
		t.Fatalf("recalibration returned backfill: %v", spans)
	}
	if got := p.Op(key); got != 5.0 {
		t.Fatalf("running mean = %v, want 5", got)
	}
	// [1s,2s) at 4 W ×10 lanes settled, [2s,3s) at 5 W ×10 live.
	if got, want := p.EnergyJ(3*time.Second), 4.0*10+5.0*10; math.Abs(got-want) > 1e-9 {
		t.Fatalf("ledger %v J, want %v", got, want)
	}
}

func TestGroupPoolIOCarryExact(t *testing.T) {
	t.Parallel()
	// 333 IOPS per lane: fractional counts must carry exactly across
	// arbitrarily sliced spans.
	p := NewGroupPool(333, 512)
	key := GroupKey{Cohort: 0, State: 0}
	p.SetCount(key, 7, 0)
	// Slice the timeline at awkward points via count changes.
	p.SetCount(key, 7, 137*time.Millisecond)  // no-op change is ignored
	p.SetCount(key, 11, 391*time.Millisecond) // membership delta
	p.SetCount(key, 11, 700*time.Millisecond)
	ios, bytes := p.SettleIO(1 * time.Second)
	// Exact lane-seconds: 7×0.391 + 11×0.609.
	var exact float64 = 333 * (7*0.391 + 11*0.609)
	if want := int64(exact); ios != want {
		t.Fatalf("ios = %d, want %d (exact %v)", ios, want, exact)
	}
	if bytes != ios*512 {
		t.Fatalf("bytes = %d, want ios×512", bytes)
	}
	// The remaining fraction carries: another settle later continues
	// from the fractional remainder, never re-counting.
	ios2, _ := p.SettleIO(2 * time.Second)
	var exact2 float64 = 333 * (7*0.391 + 11*1.609)
	total := int64(exact2)
	if ios+ios2 != total {
		t.Fatalf("carry drifted: %d + %d != %d", ios, ios2, total)
	}
}

func TestGroupPoolBucketsAndCounts(t *testing.T) {
	t.Parallel()
	p := NewGroupPool(100, 512)
	a, b := GroupKey{0, 0}, GroupKey{0, 2}
	p.SetCount(a, 5, 0)
	p.SetCount(b, 3, 0)
	if p.Buckets() != 2 || p.Members() != 8 {
		t.Fatalf("buckets=%d members=%d", p.Buckets(), p.Members())
	}
	p.SetCount(b, 0, 1*time.Second)
	if p.Buckets() != 2 || p.Members() != 5 {
		t.Fatalf("after drain: buckets=%d members=%d", p.Buckets(), p.Members())
	}
	if !p.Has(a) || p.Has(GroupKey{9, 9}) {
		t.Fatal("Has misreports bucket existence")
	}
}
