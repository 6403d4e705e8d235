package ssd_test

import (
	"runtime"
	"testing"

	"wattio/internal/catalog"
	"wattio/internal/sim"
	"wattio/internal/ssd"
)

// maxSSDBytes bounds a fresh SSD2's live heap, ~2.0 KB. One meter
// record carries all 128 dies, and the device's events wait in the
// engine's queues; an event queue and a meter record per die held
// ~37 KB more.
const maxSSDBytes = 8 << 10

// TestSSDFootprint measures the live heap a fresh 128-die SSD2 holds,
// averaged over a batch of devices on one engine.
func TestSSDFootprint(t *testing.T) {
	const n = 256
	cfg := catalog.SSD2Config()
	eng, rng := sim.NewEngine(), sim.NewRNG(1)
	// The first device allocates the engine's shared structures (the
	// timing wheel); it is not part of any one device's footprint.
	if _, err := ssd.New(&cfg, cfg.Name, eng, rng); err != nil {
		t.Fatal(err)
	}
	devs := make([]*ssd.SSD, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range devs {
		d, err := ssd.New(&cfg, cfg.Name, eng, rng)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(devs)
	per := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%.0f B live heap per fresh SSD2", per)
	if per >= maxSSDBytes {
		t.Fatalf("a fresh SSD2 holds %.0f B of live heap, want < %d", per, maxSSDBytes)
	}
}
