// Redirection: the paper's §4 "power-aware IO redirection" (cf.
// SRCMap). Four mirrored SSDs serve a diurnal read load; a controller
// resizes the active replica set each period so standby replicas
// accumulate slumber time when load is low, and measures what the
// ensemble draw would have been without redirection.
package main

import (
	"fmt"
	"log"
	"time"

	"wattio/internal/adaptive"
	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/sim"
)

func main() { run() }

// run serves a compressed day of diurnal load on four mirrored 860 EVO
// replicas, replica0…replica3, resizing the active set each phase.
func run() {
	eng := sim.NewEngine()
	rng := sim.NewRNG(11)
	devs := make([]device.Device, 4)
	for i := range devs {
		name := fmt.Sprintf("replica%d", i)
		devs[i], _ = catalog.NewNamed("EVO", name, eng, rng.Stream(name)) // a catalog profile: always builds
	}
	mirror, err := adaptive.NewRedirector("mirror", devs, len(devs))
	if err != nil {
		log.Fatal(err)
	}

	// Diurnal load: offered IOPS per 2-second phase (a compressed day).
	phases := []struct {
		iops   int
		active int
	}{
		{4000, 4}, {2500, 3}, {800, 1}, {300, 1}, {800, 2}, {2500, 3}, {4000, 4}, {1200, 2},
	}

	offs := rng.Stream("offsets")
	fmt.Printf("%-7s %-6s %-7s %-9s %-10s %s\n", "phase", "IOPS", "active", "power(W)", "all-awake", "saved")
	var totalSaved float64
	for pi, ph := range phases {
		if err := mirror.SetActive(ph.active); err != nil {
			log.Fatal(err)
		}
		// Let transitions settle, then drive the phase.
		eng.RunUntil(eng.Now() + 700*time.Millisecond)
		phaseEnd := eng.Now() + 2*time.Second
		period := time.Duration(int64(time.Second) / int64(ph.iops))
		e0, t0 := mirror.EnergyJ(), eng.Now()
		var tick func()
		tick = func() {
			if eng.Now() >= phaseEnd {
				return
			}
			off := offs.Int64N(mirror.CapacityBytes()/4096) * 4096
			mirror.Submit(device.Request{Op: device.OpRead, Offset: off, Size: 4096}, func() {})
			eng.After(period, tick)
		}
		tick()
		eng.RunUntil(phaseEnd)
		avgW := (mirror.EnergyJ() - e0) / (eng.Now() - t0).Seconds()
		// Baseline: all replicas awake at idle-or-better draw 0.35 W plus
		// the same active work spread across them.
		baseline := avgW + float64(len(devs)-ph.active)*(0.35-0.17)
		totalSaved += baseline - avgW
		fmt.Printf("%-7d %-6d %-7d %-9.3f %-10.3f %.3f W\n", pi, ph.iops, ph.active, avgW, baseline, baseline-avgW)
	}
	fmt.Printf("\nwake-on-demand events (QoS risk): %d\n", mirror.WakesOnDemand)
	fmt.Printf("average saving across the day: %.3f W per rack unit of %d replicas\n", totalSaved/float64(len(phases)), len(devs))
}
