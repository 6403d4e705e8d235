// Powercap: the paper's §3.2.1 and §4 in action. First walk SSD2's
// NVMe power states under sequential writes and reads to see the
// asymmetry (caps crush writes, barely touch reads); then exploit it
// with adaptive.AsymmetricPlacer — segregate writes onto one uncapped
// device and cap the read-serving devices, cutting ensemble power with
// little QoS impact.
//
// The device and workload shape come from a scenario spec
// (scenarios/powercap.json by default); run from the repo root, or
// point -scenario at the file.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"wattio/internal/adaptive"
	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/measure"
	"wattio/internal/nvme"
	"wattio/internal/scenario"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

func runOne(sp *scenario.Spec, op device.Op, ps int) (bw, pw float64) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(sp.Seed)
	built, err := sp.BuildDevices(eng, rng, sim.NewRNG(sp.FaultSeed))
	if err != nil {
		log.Fatal(err)
	}
	dev := built[0].Dev
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
	job := sp.Workload.Job(10*time.Second, 2<<30)
	job.Op = op // part 1 walks both ops over the spec's workload shape
	res := workload.Run(eng, dev, job, rng.Stream("workload"))
	rig.Stop()
	return res.BandwidthMBps, rig.Trace().Mean()
}

func main() {
	specPath := flag.String("scenario", "scenarios/powercap.json", "scenario spec describing the device and workload")
	flag.Parse()
	run(*specPath)
}

// run walks the spec's device through its power states, then places a
// mixed stream on one uncapped writer and two capped readers.
func run(specPath string) {
	sp, err := scenario.LoadFile(specPath)
	if err != nil {
		log.Fatal(err)
	}
	if len(sp.Devices) == 0 || sp.Workload == nil {
		log.Fatalf("%s: powercap needs a scenario with a device and a workload", specPath)
	}

	fmt.Println("Part 1: power capping hits writes, not reads (Fig. 4)")
	fmt.Printf("%-4s %-22s %s\n", "ps", "seq write", "seq read")
	var w0, r0 float64
	for ps := 0; ps < 3; ps++ {
		wb, wp := runOne(sp, device.OpWrite, ps)
		rb, rp := runOne(sp, device.OpRead, ps)
		if ps == 0 {
			w0, r0 = wb, rb
		}
		fmt.Printf("ps%-3d %6.0f MB/s @ %5.2f W  %6.0f MB/s @ %5.2f W   (write %3.0f%%, read %3.0f%% of ps0)\n",
			ps, wb, wp, rb, rp, 100*wb/w0, 100*rb/r0)
	}

	fmt.Println("\nPart 2: asymmetric IO — one uncapped writer, two capped readers")
	eng := sim.NewEngine()
	rng := sim.NewRNG(sp.Seed)
	profile := sp.Devices[0].Profile
	newDev := func(name string) device.Device {
		d, ok := catalog.NewNamed(profile, name, eng, rng.Stream(name))
		if !ok {
			log.Fatalf("unknown profile %q", profile)
		}
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
