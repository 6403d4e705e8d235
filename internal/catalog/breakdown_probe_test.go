package catalog

import (
	"math"
	"testing"

	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

// TestSSD1Breakdown runs SSD1's headline random-write workload and
// checks that the per-component energies it accrued partition the
// device's energy over the run, then logs each component's average
// power so calibration drift is attributable.
func TestSSD1Breakdown(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := NewSSD1(eng, rng)
	_, c0 := dev.EnergyComponents()
	e0, t0 := dev.EnergyJ(), eng.Now()
	r := workload.Start(eng, dev, calJob(device.OpWrite, workload.Rand, 256*KiB, 64), rng)
	for !r.Done() && eng.Step() {
	}
	names, c1 := dev.EnergyComponents()
	secs := (eng.Now() - t0).Seconds()
	var sum float64
	for i := range names {
		d := c1[i] - c0[i]
		if d < 0 {
			t.Errorf("%s energy shrank by %v J", names[i], -d)
		}
		sum += d
		t.Logf("%-12s %.3f W", names[i], d/secs)
	}
	total := dev.EnergyJ() - e0
	t.Logf("%-12s %.3f W over %.2f s", "total", total/secs, secs)
	if math.Abs(sum-total) > 1e-9*total {
		t.Errorf("components sum to %v J, device energy %v J", sum, total)
	}
}
