package meso

import (
	"math"
	"testing"
	"time"
)

func TestSettlementClosedForm(t *testing.T) {
	p := NewPool(2)
	op := OperatingPoint{PowerW: 12.5, IdleW: 4.5, RateIOPS: 1000, BytesPerIO: 4096}
	p.Park(0, op, 2*time.Second)
	if !p.Parked(0) || p.Parked(1) {
		t.Fatalf("park bookkeeping: parked(0)=%v parked(1)=%v", p.Parked(0), p.Parked(1))
	}
	set := p.Unpark(0, 5*time.Second)
	if set.Dur != 3*time.Second {
		t.Fatalf("Dur = %v, want 3s", set.Dur)
	}
	if set.IOs != 3000 {
		t.Fatalf("IOs = %d, want 3000", set.IOs)
	}
	if set.Bytes != 3000*4096 {
		t.Fatalf("Bytes = %d, want %d", set.Bytes, 3000*4096)
	}
	if got, want := set.DynJ, (12.5-4.5)*3.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("DynJ = %v, want %v", got, want)
	}
	if set.PredictedW != 12.5 {
		t.Fatalf("PredictedW = %v, want 12.5", set.PredictedW)
	}
	if p.Parked(0) {
		t.Fatal("lane 0 still parked after unpark")
	}
}

// TestFractionalCarry: IO credit must not truncate per span — the
// fractional remainder carries so total credit over many short spans
// tracks rate × total parked time exactly.
func TestFractionalCarry(t *testing.T) {
	p := NewPool(1)
	op := OperatingPoint{PowerW: 5, IdleW: 2, RateIOPS: 3, BytesPerIO: 512}
	var total int64
	at := time.Duration(0)
	for k := 0; k < 4; k++ {
		p.Park(0, op, at)
		at += 500 * time.Millisecond
		total += p.Unpark(0, at).IOs
	}
	// 3 IOPS × 2 s total = 6 IOs; naive floor(1.5) per span would give 4.
	if total != 6 {
		t.Fatalf("total IOs over 4×500ms spans = %d, want 6", total)
	}
}

func TestDynEnergyMonotoneAndConsistent(t *testing.T) {
	p := NewPool(3)
	p.Park(0, OperatingPoint{PowerW: 10, IdleW: 4, RateIOPS: 100, BytesPerIO: 512}, 0)

	prev := -1.0
	for _, at := range []time.Duration{0, 500 * time.Millisecond, time.Second} {
		e := p.DynEnergyJ(at)
		if e < prev {
			t.Fatalf("DynEnergyJ not monotone: %v J at %v after %v J", e, at, prev)
		}
		prev = e
	}
	p.Park(1, OperatingPoint{PowerW: 7, IdleW: 3, RateIOPS: 100, BytesPerIO: 512}, 1*time.Second)
	if e := p.DynEnergyJ(2 * time.Second); e < prev {
		t.Fatalf("DynEnergyJ not monotone across a park: %v J after %v J", e, prev)
	}
	// At t=2s: lane0 accrued 6 W × 2 s, lane1 4 W × 1 s.
	if got, want := p.DynEnergyJ(2*time.Second), 6.0*2+4.0*1; math.Abs(got-want) > 1e-9 {
		t.Fatalf("DynEnergyJ(2s) = %v, want %v", got, want)
	}
	// Settling lane0 must not change the total at the settlement time.
	before := p.DynEnergyJ(2 * time.Second)
	set := p.Unpark(0, 2*time.Second)
	if after := p.DynEnergyJ(2 * time.Second); math.Abs(after-before) > 1e-9 {
		t.Fatalf("DynEnergyJ discontinuous across Unpark: %v -> %v", before, after)
	}
	if math.Abs(set.DynJ-12.0) > 1e-9 {
		t.Fatalf("lane0 DynJ = %v, want 12", set.DynJ)
	}
}

// TestIdleClampsDynamic: a calibration where measured idle exceeds the
// measured serving draw must clamp to zero dynamic power, never
// negative energy.
func TestIdleClampsDynamic(t *testing.T) {
	p := NewPool(1)
	p.Park(0, OperatingPoint{PowerW: 3, IdleW: 5, RateIOPS: 10, BytesPerIO: 512}, 0)
	if e := p.DynEnergyJ(10 * time.Second); e != 0 {
		t.Fatalf("DynEnergyJ = %v with idle above serving draw, want 0", e)
	}
	if set := p.Unpark(0, 10*time.Second); set.DynJ != 0 {
		t.Fatalf("DynJ = %v, want 0", set.DynJ)
	}
}

func TestParkStatePanics(t *testing.T) {
	p := NewPool(1)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Unpark hydrated", func() { p.Unpark(0, 0) })
	p.Park(0, OperatingPoint{PowerW: 1, RateIOPS: 1, BytesPerIO: 1}, time.Second)
	mustPanic("double Park", func() { p.Park(0, OperatingPoint{}, 2*time.Second) })
	mustPanic("Unpark before park time", func() { p.Unpark(0, 0) })
}
