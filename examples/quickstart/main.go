// Quickstart: build a simulated data-center SSD, clamp the measurement
// rig onto its power rails, run a fio-style workload, and read back
// throughput, latency, and measured power — the whole pipeline of the
// paper's measurement study in thirty lines.
package main

import (
	"fmt"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/measure"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

func main() {
	// Everything lives on one discrete-event engine; a fixed seed makes
	// the run exactly reproducible.
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)

	// SSD2 is the Intel D7-P5510 model from the paper's Table 1.
	dev := catalog.NewSSD2(eng, rng)

	// The rig is the paper's Figure 1: shunt resistor, amplifier,
	// 24-bit ADC at 1 kHz, Arduino serial framing, calibrated logger.
	rig := measure.NewRig(eng, rng, dev)
	rig.Start()

	// fio --rw=randwrite --bs=256k --iodepth=64 --runtime=60 --size=4G
	res := workload.Run(eng, dev, workload.Job{
		Op:         device.OpWrite,
		Pattern:    workload.Rand,
		BS:         256 << 10,
		Depth:      64,
		Runtime:    time.Minute,
		TotalBytes: 4 << 30,
	}, rng)
	rig.Stop()

	sum := rig.Trace().Summary()
	fmt.Printf("device     : %s (%s)\n", dev.Name(), dev.Model())
	fmt.Printf("throughput : %.0f MB/s (%.0f IOPS)\n", res.BandwidthMBps, res.IOPS)
	fmt.Printf("latency    : avg %v, p99 %v\n", res.LatAvg.Round(time.Microsecond), res.LatP99.Round(time.Microsecond))
	fmt.Printf("power      : avg %.2f W, swing %.2f-%.2f W over %d samples\n", sum.Mean, sum.Min, sum.Max, sum.N)
	fmt.Printf("energy     : %.2f nJ per byte written\n", dev.EnergyJ()/float64(res.Bytes)*1e9)
}
