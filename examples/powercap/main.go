// Powercap: the paper's §3.2.1 and §4 in action. First walk SSD2's
// NVMe power states under sequential writes and reads to see the
// asymmetry (caps crush writes, barely touch reads); then exploit it
// with adaptive.AsymmetricPlacer — segregate writes onto one uncapped
// device and cap the read-serving devices, cutting ensemble power with
// little QoS impact.
package main

import (
	"fmt"
	"log"
	"time"

	"wattio/internal/adaptive"
	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/measure"
	"wattio/internal/nvme"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

// seed fixes every device, rig and workload stream of the walk.
const seed = 7

// runOne measures SSD2 at power state ps under saturating sequential
// IO of op: 256 KiB requests at queue depth 64 for 10 s or 2 GiB.
func runOne(op device.Op, ps int) (bw, pw float64) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	dev := catalog.NewSSD2(eng, rng.Stream("SSD2"))
	// Drive the power state through the NVMe admin surface, exactly as
	// nvme-cli would.
	ctrl, err := nvme.NewController(dev)
	if err != nil {
		log.Fatal(err)
	}
	if err := ctrl.SetPowerState(ps); err != nil {
		log.Fatal(err)
	}
	rig := measure.NewRig(eng, rng.Stream("rig"), dev)
	rig.Start()
	res := workload.Run(eng, dev, workload.Job{
		Op:         op,
		Pattern:    workload.Seq,
		BS:         256 << 10,
		Depth:      64,
		Runtime:    10 * time.Second,
		TotalBytes: 2 << 30,
	}, rng.Stream("workload"))
	rig.Stop()
	return res.BandwidthMBps, rig.Trace().Mean()
}

func main() { run() }

// run walks SSD2 through its power states, then places a mixed stream
// on one uncapped writer and two capped readers.
func run() {
	fmt.Println("Part 1: power capping hits writes, not reads (Fig. 4)")
	fmt.Printf("%-4s %-22s %s\n", "ps", "seq write", "seq read")
	var w0, r0 float64
	for ps := 0; ps < 3; ps++ {
		wb, wp := runOne(device.OpWrite, ps)
		rb, rp := runOne(device.OpRead, ps)
		if ps == 0 {
			w0, r0 = wb, rb
		}
		fmt.Printf("ps%-3d %6.0f MB/s @ %5.2f W  %6.0f MB/s @ %5.2f W   (write %3.0f%%, read %3.0f%% of ps0)\n",
			ps, wb, wp, rb, rp, 100*wb/w0, 100*rb/r0)
	}

	fmt.Println("\nPart 2: asymmetric IO — one uncapped writer, two capped readers")
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	newDev := func(name string) device.Device {
		d, _ := catalog.NewNamed("SSD2", name, eng, rng.Stream(name)) // a catalog profile: always builds
		return d
	}
	writer := newDev("w")
	readers := []device.Device{newDev("r1"), newDev("r2")}
	placer, err := adaptive.NewAsymmetricPlacer([]device.Device{writer}, readers, 2)
	if err != nil {
		log.Fatal(err)
	}

	// A 50/50 read/write stream at queue depth 24.
	const total = 3000
	issued, completed := 0, 0
	var issue func()
	issue = func() {
		if issued >= total {
			return
		}
		op := device.OpRead
		if issued%2 == 1 {
			op = device.OpWrite
		}
		off := int64(issued%1024) << 21
		issued++
		placer.Submit(device.Request{Op: op, Offset: off, Size: 256 << 10}, func() {
			completed++
			issue()
		})
	}
	start := eng.Now()
	for i := 0; i < 24; i++ {
		issue()
	}
	var peak float64
	for completed < total {
		if !eng.Step() {
			break
		}
		if p := placer.TotalPower(); p > peak {
			peak = p
		}
	}
	elapsed := eng.Now() - start
	mb := float64(completed) * 256 / 1024 // MiB
	fmt.Printf("mixed stream: %.0f MiB in %v (%.0f MB/s) across 3 devices\n",
		mb, elapsed.Round(time.Millisecond), mb*1.048576/elapsed.Seconds())
	fmt.Printf("peak ensemble power: %.1f W (vs ~45 W for three uncapped devices at full write load)\n", peak)
	fmt.Printf("readers capped at ps2 (10 W each); writer %s uncapped\n", writer.Name())
}
