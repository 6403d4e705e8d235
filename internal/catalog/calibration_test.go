package catalog

// Calibration tests assert that each device model reproduces the numbers
// the paper publishes for the physical drive it stands in for. These are
// the contract between the simulator and the measurement study: if a
// model drifts away from the paper's observations, these tests fail.

import (
	"testing"
	"time"

	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

// measured runs one job on one device and returns the workload result
// plus the average device power over the run window.
func measured(t *testing.T, dev device.Device, eng *sim.Engine, rng *sim.RNG, job workload.Job) (workload.Result, float64) {
	t.Helper()
	e0 := dev.EnergyJ()
	t0 := eng.Now()
	res := workload.Run(eng, dev, job, rng)
	elapsed := eng.Now() - t0
	if elapsed <= 0 {
		t.Fatalf("job %s finished in no time", job.Name())
	}
	avgW := (dev.EnergyJ() - e0) / elapsed.Seconds()
	return res, avgW
}

// gib is one GiB, the unit of the paper's per-point byte bound.
const gib = 1024 * MiB

// calJob is the standard calibration workload bound: 1 GiB or 10 s,
// a scaled-down version of the paper's 4 GiB-or-60 s rule.
func calJob(op device.Op, pat workload.Pattern, bs int64, depth int) workload.Job {
	return workload.Job{
		Op: op, Pattern: pat, BS: bs, Depth: depth,
		Runtime: 10 * time.Second, TotalBytes: 4 * gib,
	}
}

// idlePower measures a device's draw with no IO over one second.
func idlePower(dev device.Device, eng *sim.Engine) float64 {
	e0, t0 := dev.EnergyJ(), eng.Now()
	eng.RunUntil(t0 + time.Second)
	return (dev.EnergyJ() - e0) / (eng.Now() - t0).Seconds()
}

func wantRange(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.3f, want in [%.3f, %.3f]", name, got, lo, hi)
	} else {
		t.Logf("%s = %.3f (target [%.3f, %.3f])", name, got, lo, hi)
	}
}

func TestIdlePower(t *testing.T) {
	t.Parallel()
	// Table 1 floors / §3.2.2: SSD1 3.5 W, SSD2 5 W, SSD3 1 W,
	// HDD 3.76 W spinning idle, EVO 0.35 W.
	targets := map[string][2]float64{
		"SSD1": {3.4, 3.6},
		"SSD2": {4.9, 5.1},
		"SSD3": {0.95, 1.05},
		"HDD":  {3.7, 3.85},
		"EVO":  {0.33, 0.37},
	}
	for name, rng := range targets {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			dev, _ := NewNamed(name, name, eng, sim.NewRNG(1))
			wantRange(t, name+" idle W", idlePower(dev, eng), rng[0], rng[1])
		})
	}
}

func TestSSD2SequentialWriteUnderPowerStates(t *testing.T) {
	t.Parallel()
	// Fig. 4a: sequential write throughput in ps1 is ~74% of ps0 and in
	// ps2 ~55% of ps0 (26% and then 45% drops).
	bw := make([]float64, 3)
	pw := make([]float64, 3)
	for ps := 0; ps < 3; ps++ {
		eng := sim.NewEngine()
		rng := sim.NewRNG(7)
		dev := NewSSD2(eng, rng)
		if err := dev.SetPowerState(ps); err != nil {
			t.Fatal(err)
		}
		res, avgW := measured(t, dev, eng, rng, calJob(device.OpWrite, workload.Seq, 256*KiB, 64))
		bw[ps], pw[ps] = res.BandwidthMBps, avgW
	}
	t.Logf("seq write bw: ps0=%.0f ps1=%.0f ps2=%.0f MB/s; power: %.2f %.2f %.2f W",
		bw[0], bw[1], bw[2], pw[0], pw[1], pw[2])
	wantRange(t, "ps0 bw MB/s", bw[0], 3000, 3450)
	wantRange(t, "ps0 power W", pw[0], 13.7, 15.1)
	wantRange(t, "ps1/ps0 bw", bw[1]/bw[0], 0.69, 0.79)
	wantRange(t, "ps2/ps0 bw", bw[2]/bw[0], 0.50, 0.60)
	wantRange(t, "ps1 power W", pw[1], 11.5, 12.5)
	wantRange(t, "ps2 power W", pw[2], 9.5, 10.5)
}

func TestSSD2SequentialReadBarelyCapped(t *testing.T) {
	t.Parallel()
	// Fig. 4b: capping ps0→ps1→ps2 causes minimal sequential-read drop.
	bw := make([]float64, 3)
	pw := make([]float64, 3)
	for ps := 0; ps < 3; ps++ {
		eng := sim.NewEngine()
		rng := sim.NewRNG(7)
		dev := NewSSD2(eng, rng)
		if err := dev.SetPowerState(ps); err != nil {
			t.Fatal(err)
		}
		res, avgW := measured(t, dev, eng, rng, calJob(device.OpRead, workload.Seq, 256*KiB, 64))
		bw[ps], pw[ps] = res.BandwidthMBps, avgW
	}
	t.Logf("seq read bw: ps0=%.0f ps1=%.0f ps2=%.0f MB/s; power: %.2f %.2f %.2f W",
		bw[0], bw[1], bw[2], pw[0], pw[1], pw[2])
	wantRange(t, "ps0 read bw MB/s", bw[0], 3100, 3450)
	wantRange(t, "ps2/ps0 read bw", bw[2]/bw[0], 0.93, 1.0)
	wantRange(t, "read power W", pw[0], 6.5, 9.5)
}

func TestSSD2RandomWritePeakPower(t *testing.T) {
	t.Parallel()
	// Table 1: SSD2's measured range tops out at 15.1 W, reached on
	// large-chunk random writes.
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := NewSSD2(eng, rng)
	res, avgW := measured(t, dev, eng, rng, calJob(device.OpWrite, workload.Rand, 2*MiB, 64))
	t.Logf("rand write 2MiB qd64: %.0f MB/s at %.2f W", res.BandwidthMBps, avgW)
	wantRange(t, "avg power W", avgW, 13.8, 15.1)
}

func TestSSD2RandomWriteLatencyUnderCap(t *testing.T) {
	t.Parallel()
	// Fig. 5: random-write latency at qd1, ps2 vs ps0: average up to
	// ~2x, p99 up to ~6.2x at the largest chunks.
	type lat struct{ avg, p99 time.Duration }
	res := make([]lat, 3)
	for ps := 0; ps < 3; ps++ {
		eng := sim.NewEngine()
		rng := sim.NewRNG(7)
		dev := NewSSD2(eng, rng)
		if err := dev.SetPowerState(ps); err != nil {
			t.Fatal(err)
		}
		r, _ := measured(t, dev, eng, rng, calJob(device.OpWrite, workload.Rand, 2*MiB, 1))
		res[ps] = lat{r.LatAvg, r.LatP99}
	}
	avgRatio := float64(res[2].avg) / float64(res[0].avg)
	p99Ratio := float64(res[2].p99) / float64(res[0].p99)
	t.Logf("2MiB qd1 randwrite: ps0 avg=%v p99=%v; ps2 avg=%v p99=%v (ratios %.2f, %.2f)",
		res[0].avg, res[0].p99, res[2].avg, res[2].p99, avgRatio, p99Ratio)
	wantRange(t, "ps2/ps0 avg latency", avgRatio, 1.3, 2.3)
	wantRange(t, "ps2/ps0 p99 latency", p99Ratio, 3.0, 7.0)
}

func TestSSD2RandomReadLatencyUnaffected(t *testing.T) {
	t.Parallel()
	// Fig. 6: reads at qd1 do not load the device enough to be capped;
	// latency is flat across power states.
	var lats [3]time.Duration
	for ps := 0; ps < 3; ps++ {
		eng := sim.NewEngine()
		rng := sim.NewRNG(7)
		dev := NewSSD2(eng, rng)
		if err := dev.SetPowerState(ps); err != nil {
			t.Fatal(err)
		}
		r, _ := measured(t, dev, eng, rng, workload.Job{
			Op: device.OpRead, Pattern: workload.Rand, BS: 256 * KiB, Depth: 1,
			Runtime: 3 * time.Second, TotalBytes: 256 * MiB,
		})
		lats[ps] = r.LatAvg
	}
	ratio := float64(lats[2]) / float64(lats[0])
	t.Logf("rand read qd1 avg lat: ps0=%v ps2=%v (ratio %.3f)", lats[0], lats[2], ratio)
	wantRange(t, "ps2/ps0 read latency", ratio, 0.98, 1.02)
}

func TestSSD1RandomWriteHeadline(t *testing.T) {
	t.Parallel()
	// §3.3: SSD1 at qd64 / 256 KiB random write delivers ~3.3 GiB/s at
	// ~8.19 W; dropping to qd1 cuts power ~20% and throughput ~40%.
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := NewSSD1(eng, rng)
	r64, p64 := measured(t, dev, eng, rng, calJob(device.OpWrite, workload.Rand, 256*KiB, 64))

	eng2 := sim.NewEngine()
	rng2 := sim.NewRNG(7)
	dev2 := NewSSD1(eng2, rng2)
	r1, p1 := measured(t, dev2, eng2, rng2, calJob(device.OpWrite, workload.Rand, 256*KiB, 1))

	t.Logf("SSD1 randwrite 256KiB: qd64 %.0f MB/s @ %.2f W; qd1 %.0f MB/s @ %.2f W",
		r64.BandwidthMBps, p64, r1.BandwidthMBps, p1)
	wantRange(t, "qd64 bw GiB/s", r64.BandwidthMBps/1073.74, 3.1, 3.45)
	wantRange(t, "qd64 power W", p64, 7.8, 8.6)
	wantRange(t, "qd1/qd64 bw", r1.BandwidthMBps/r64.BandwidthMBps, 0.52, 0.68)
	wantRange(t, "qd1/qd64 power", p1/p64, 0.72, 0.88)
}

func TestSSD1InstantaneousSwing(t *testing.T) {
	t.Parallel()
	// Fig. 2a: SSD1's instantaneous power during random write swings
	// well above its ~8.2 W average, up to ~13.5 W.
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := NewSSD1(eng, rng)
	peak := 0.0
	var sampler func()
	sampler = func() {
		if p := dev.InstantPower(); p > peak {
			peak = p
		}
		eng.After(time.Millisecond, sampler)
	}
	eng.After(time.Millisecond, sampler)
	res := workload.Start(eng, dev, calJob(device.OpWrite, workload.Rand, 256*KiB, 64), rng)
	for !res.Done() && eng.Step() {
	}
	wantRange(t, "SSD1 peak instantaneous W", peak, 11.8, 13.7)
}

func TestSSD3Range(t *testing.T) {
	t.Parallel()
	// Table 1: SSD3 measured 1-3.5 W; SATA-link-bound sequential IO.
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := NewSSD3(eng, rng)
	res, avgW := measured(t, dev, eng, rng, calJob(device.OpWrite, workload.Rand, 2*MiB, 64))
	t.Logf("SSD3 randwrite 2MiB qd64: %.0f MB/s @ %.2f W", res.BandwidthMBps, avgW)
	wantRange(t, "SSD3 max power W", avgW, 3.1, 3.55)
	wantRange(t, "SSD3 bw MB/s", res.BandwidthMBps, 440, 535)
}

func TestHDDSequentialThroughput(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := NewHDD(eng, rng)
	res, avgW := measured(t, dev, eng, rng, workload.Job{
		Op: device.OpRead, Pattern: workload.Seq, BS: 2 * MiB, Depth: 4,
		Runtime: 10 * time.Second, TotalBytes: 4 * gib,
	})
	t.Logf("HDD seq read: %.0f MB/s @ %.2f W", res.BandwidthMBps, avgW)
	wantRange(t, "HDD seq read MB/s", res.BandwidthMBps, 170, 215)
	wantRange(t, "HDD seq read W", avgW, 3.9, 4.6)
}

func TestHDDRandomWriteSeekPower(t *testing.T) {
	t.Parallel()
	// Table 1: HDD active power reaches ~5.3 W on seek-heavy work.
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := NewHDD(eng, rng)
	res, avgW := measured(t, dev, eng, rng, workload.Job{
		Op: device.OpWrite, Pattern: workload.Rand, BS: 2 * MiB, Depth: 64,
		Runtime: 20 * time.Second, TotalBytes: 2 * gib,
	})
	t.Logf("HDD randwrite 2MiB qd64: %.0f MB/s @ %.2f W", res.BandwidthMBps, avgW)
	wantRange(t, "HDD randwrite W", avgW, 4.0, 4.8)
	wantRange(t, "HDD randwrite MB/s", res.BandwidthMBps, 90, 160)
}

func TestHDDStandbyPower(t *testing.T) {
	t.Parallel()
	// §3.2.2: standby 1.1 W vs 3.76 W idle, saving 2.66 W; spin-down
	// plus spin-up is on the order of ten seconds.
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := NewHDD(eng, rng)
	if err := dev.EnterStandby(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + 5*time.Second) // past the 1.5 s spin-down
	if !dev.Standby() {
		t.Fatal("HDD not in standby after EnterStandby + 5s")
	}
	wantRange(t, "HDD standby W", idlePower(dev, eng), 1.05, 1.15)

	// Wake and verify the multi-second spin-up restores idle power.
	wake := eng.Now()
	if err := dev.Wake(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(wake + 10*time.Second)
	wantRange(t, "HDD awake W", idlePower(dev, eng), 3.7, 3.85)
}

func TestEVOSlumber(t *testing.T) {
	t.Parallel()
	// §3.2.2 / Fig. 7: ALPM SLUMBER cuts the EVO from 0.35 W idle to
	// 0.17 W, transitioning within half a second.
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := NewEVO(eng, rng)
	if err := dev.EnterStandby(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + 500*time.Millisecond)
	wantRange(t, "EVO slumber W", idlePower(dev, eng), 0.165, 0.175)
	if err := dev.Wake(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + 500*time.Millisecond)
	wantRange(t, "EVO awake W", idlePower(dev, eng), 0.33, 0.37)
}

func TestHDDSeekPeakPower(t *testing.T) {
	t.Parallel()
	// Table 1: the HDD's ~5.3 W ceiling comes from seek-dominated work:
	// small random reads that keep the actuator moving.
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := NewHDD(eng, rng)
	res, avgW := measured(t, dev, eng, rng, workload.Job{
		Op: device.OpRead, Pattern: workload.Rand, BS: 4 * KiB, Depth: 1,
		Runtime: 20 * time.Second, TotalBytes: 64 * MiB,
	})
	t.Logf("HDD randread 4KiB qd1: %.1f IOPS @ %.2f W", res.IOPS, avgW)
	wantRange(t, "HDD seek-heavy W", avgW, 4.9, 5.4)
	wantRange(t, "HDD 4KiB qd1 IOPS", res.IOPS, 60, 110)
}

func TestDeterministicEnergyAcrossRuns(t *testing.T) {
	t.Parallel()
	// Bit-identical reproducibility is a core promise: same seed, same
	// workload → identical energy and throughput.
	run := func() (float64, float64) {
		eng := sim.NewEngine()
		rng := sim.NewRNG(123)
		dev := NewSSD2(eng, rng)
		res, avgW := measured(t, dev, eng, rng, workload.Job{
			Op: device.OpWrite, Pattern: workload.Rand, BS: 128 * KiB, Depth: 16,
			Runtime: time.Second, TotalBytes: 128 * MiB,
		})
		return res.BandwidthMBps, avgW
	}
	bw1, pw1 := run()
	bw2, pw2 := run()
	if bw1 != bw2 || pw1 != pw2 {
		t.Fatalf("same-seed runs differ: (%v, %v) vs (%v, %v)", bw1, pw1, bw2, pw2)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	t.Parallel()
	run := func(seed uint64) float64 {
		eng := sim.NewEngine()
		rng := sim.NewRNG(seed)
		dev := NewSSD1(eng, rng)
		_, avgW := measured(t, dev, eng, rng, workload.Job{
			Op: device.OpWrite, Pattern: workload.Rand, BS: 128 * KiB, Depth: 16,
			Runtime: time.Second, TotalBytes: 128 * MiB,
		})
		return avgW
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical measured power (ripple/noise not seeded?)")
	}
}

func TestEVOActivePerformance(t *testing.T) {
	t.Parallel()
	// The 860 EVO model stays a plausible SATA SSD even though the
	// paper only uses it for standby: ~500 MB/s sequential, ~2.5 W.
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := NewEVO(eng, rng)
	res, avgW := measured(t, dev, eng, rng, workload.Job{
		Op: device.OpWrite, Pattern: workload.Seq, BS: 256 * KiB, Depth: 32,
		Runtime: 5 * time.Second, TotalBytes: 512 * MiB,
	})
	wantRange(t, "EVO seq write MB/s", res.BandwidthMBps, 350, 540)
	wantRange(t, "EVO active W", avgW, 1.2, 3.0)
}

func TestSSD3ReadPath(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := NewSSD3(eng, rng)
	res, avgW := measured(t, dev, eng, rng, workload.Job{
		Op: device.OpRead, Pattern: workload.Seq, BS: 256 * KiB, Depth: 32,
		Runtime: 5 * time.Second, TotalBytes: 512 * MiB,
	})
	wantRange(t, "SSD3 seq read MB/s", res.BandwidthMBps, 480, 535)
	wantRange(t, "SSD3 seq read W", avgW, 1.5, 2.6)
}

func TestCatalogNamesResolve(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	for _, name := range Names() {
		dev, ok := NewNamed(name, name, eng, rng)
		if !ok || dev.Name() != name {
			t.Errorf("NewNamed(%q) failed", name)
		}
	}
	if _, ok := NewNamed("SSD9", "SSD9", eng, rng); ok {
		t.Error("unknown device resolved")
	}
}

func TestC960AutonomousIdle(t *testing.T) {
	t.Parallel()
	// Extension device: the client 960 EVO (the paper's ref [25]) idles
	// itself down via APST to about one-tenth of operational idle.
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev, _ := NewNamed("C960", "C960", eng, rng)
	// Operational idle (measured immediately, before APST kicks in).
	if got := dev.InstantPower(); got < 0.45 || got > 0.55 {
		t.Errorf("C960 operational idle = %.3f W, want ≈ 0.5", got)
	}
	eng.RunUntil(5 * time.Second)
	wantRange(t, "C960 autonomous idle W", idlePower(dev, eng), 0.045, 0.055)

	// It still performs like a client NVMe drive when driven.
	res, avgW := measured(t, dev, eng, rng, workload.Job{
		Op: device.OpWrite, Pattern: workload.Seq, BS: 256 * KiB, Depth: 32,
		Runtime: 3 * time.Second, TotalBytes: 512 * MiB,
	})
	wantRange(t, "C960 seq write MB/s", res.BandwidthMBps, 1500, 2300) // includes the SLC-cache-like buffer transient
	wantRange(t, "C960 active W", avgW, 3.0, 6.0)
}

// TestDeviceConformance runs every catalog device through the same
// mixed workload and checks cross-cutting invariants: every IO
// completes exactly once, instantaneous power stays within [deepest
// idle state, sum-of-components], and the event queue fully drains (no
// leaked timers).
func TestDeviceConformance(t *testing.T) {
	t.Parallel()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			rng := sim.NewRNG(77)
			dev, _ := NewNamed(name, name, eng, rng)
			issued, completed := 0, 0
			offs := rng.Stream("conf")
			for i := 0; i < 64; i++ {
				op := device.OpRead
				if i%3 == 0 {
					op = device.OpWrite
				}
				size := int64(4096 << (i % 5))
				off := offs.Int64N(dev.CapacityBytes()-size) / 512 * 512
				issued++
				dev.Submit(device.Request{Op: op, Offset: off, Size: size}, func() { completed++ })
			}
			floor := 0.04 // C960's deepest non-op state
			for eng.Step() {
				p := dev.InstantPower()
				if p < floor || p > 40 {
					t.Fatalf("power %.3f W outside sane bounds at %v", p, eng.Now())
				}
			}
			if completed != issued {
				t.Fatalf("%d/%d IOs completed", completed, issued)
			}
			if eng.Pending() != 0 {
				t.Fatalf("%d events leaked after drain", eng.Pending())
			}
			if !dev.Settled() {
				t.Fatal("device not settled at quiesce")
			}
		})
	}
}
