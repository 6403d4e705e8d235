package invariant

import (
	"math"
	"testing"
)

func TestDriftProbe(t *testing.T) {
	var p DriftProbe
	if p.WorstFrac() != 0 {
		t.Fatalf("fresh probe: worst=%v", p.WorstFrac())
	}
	if err := p.Check(0); err != nil {
		t.Fatalf("fresh probe Check: %v", err)
	}

	p.Observe(10.0, 10.0)
	p.Observe(10.5, 10.0) // 5% high
	p.Observe(9.8, 10.0)  // 2% low
	if got := p.WorstFrac(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("WorstFrac = %v, want 0.05", got)
	}
	if err := p.Check(0.05); err != nil {
		t.Fatalf("Check(0.05) on 5%% drift: %v", err)
	}
	if err := p.Check(0.04); err == nil {
		t.Fatal("Check(0.04) passed a 5% drift")
	}
}

func TestDriftProbeZeroMeasurement(t *testing.T) {
	var p DriftProbe
	p.Observe(1.0, 0)
	if math.IsInf(p.WorstFrac(), 0) || math.IsNaN(p.WorstFrac()) {
		t.Fatalf("WorstFrac = %v on zero measurement", p.WorstFrac())
	}
	if err := p.Check(0.05); err == nil {
		t.Fatal("1 W predicted against 0 W measured passed a 5% tolerance")
	}
}
