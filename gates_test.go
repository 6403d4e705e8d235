package wattio_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"wattio/internal/scenario"
	"wattio/internal/serve"
	"wattio/internal/telemetry"
)

// Per-device cost bounds for the analytic tiers at fleet scale. Peak
// live heap under 10 KiB/device keeps a million-device fleet in single-
// digit GB; under one allocation per device means materialization costs
// per cohort or probe, not per member.
const (
	maxBytesPerDevice  = 10 << 10
	maxAllocsPerDevice = 1
)

// runCost is one measured serve.Run: its report, peak live heap and
// allocations, both per device, bytes allocated, and wall-clock time.
type runCost struct {
	rep          *serve.Report
	bytesPerDev  float64
	allocsPerDev float64
	allocBytes   uint64
	wall         time.Duration
}

// measureRun runs spec once from a collected heap and measures it.
func measureRun(t *testing.T, spec serve.Spec, devices int) runCost {
	t.Helper()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mw := telemetry.WatchMem(20 * time.Millisecond)
	t0 := time.Now()
	rep, err := serve.Run(spec)
	wall := time.Since(t0)
	peak, _ := mw.Stop()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return runCost{
		rep:          rep,
		bytesPerDev:  float64(peak) / float64(devices),
		allocsPerDev: float64(m1.Mallocs-m0.Mallocs) / float64(devices),
		allocBytes:   m1.TotalAlloc - m0.TotalAlloc,
		wall:         wall,
	}
}

// checkServeGates fails t unless the run held the power cap, tracked
// the budget, and kept the meso drift probe quiet.
func checkServeGates(t *testing.T, size int, rep *serve.Report) {
	t.Helper()
	if !rep.CapOK || !rep.TrackOK || !rep.MesoDriftOK {
		t.Fatalf("gates failed at n=%d: cap=%v track=%v drift=%v (worst %.4f)",
			size, rep.CapOK, rep.TrackOK, rep.MesoDriftOK, rep.MesoWorstDriftFrac)
	}
}

// checkPerDeviceCost fails t if a run's heap or allocation cost per
// device reaches its bound.
func checkPerDeviceCost(t *testing.T, size int, c runCost) {
	t.Helper()
	if c.bytesPerDev >= maxBytesPerDevice {
		t.Errorf("%.1f bytes/device at n=%d, want < %d", c.bytesPerDev, size, maxBytesPerDevice)
	}
	if c.allocsPerDev >= maxAllocsPerDevice {
		t.Errorf("%.3f allocs/device at n=%d, want < %d", c.allocsPerDev, size, maxAllocsPerDevice)
	}
}

// maxSetupGrowth bounds how much longer the set-up of a 10⁶-device
// group-parked fleet may take than that of a 10⁴-device one. Set-up
// that walks every member took ~10× as long at the larger size; set-up
// in O(#cohorts + #residents) takes about as long at both.
const maxSetupGrowth = 3

// setupTime is the least wall-clock time of five serve.Runs of spec cut
// to its fixed cost: a 1 ms horizon and control period under the first
// budget step and arrival rate, with no churn. What remains is
// residency, materialization and the initial plan.
func setupTime(t *testing.T, spec serve.Spec) time.Duration {
	t.Helper()
	spec.Horizon, spec.ControlPeriod = time.Millisecond, time.Millisecond
	spec.Budget = spec.Budget[:min(len(spec.Budget), 1)]
	spec.Rates = spec.Rates[:min(len(spec.Rates), 1)]
	spec.Churn = nil
	best := time.Duration(math.MaxInt64)
	for range 5 {
		t0 := time.Now()
		if _, err := serve.Run(spec); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(t0))
	}
	return best
}

// TestScaleGates runs the group-parked tier at 10⁴ and 10⁶ devices
// under the stepped curtail-and-recover budget, which splits every
// cohort across hull levels. The million-device point must stay inside
// the per-device cost bounds, the plan slots scanned must not grow
// with fleet size (the control scan is bucket-shaped, not lane-shaped),
// and neither may the set-up: residency is planned per cohort, not per
// member.
func TestScaleGates(t *testing.T) {
	sizes := []int{10_000, 1_000_000}
	slots := make([]int, len(sizes))
	setups := make([]time.Duration, len(sizes))
	var largest runCost
	for i, size := range sizes {
		sp := scenario.BuiltIn("meso")
		sp.Fleet.Size = size
		sp.Fleet.RateIOPS = 500
		sp.Fleet.Budget = "" // stepped default: forces a bucket split per step
		sp.Fleet.Meso.GroupMin = 64
		sp.Fleet.Meso.Probes = 2
		spec, err := sp.ServeSpec(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c := measureRun(t, spec, size)
		rep := c.rep
		if rep.MesoGroupLanes == 0 || rep.MesoGroupBuckets == 0 {
			t.Fatalf("nothing virtualized at n=%d: lanes=%d buckets=%d", size, rep.MesoGroupLanes, rep.MesoGroupBuckets)
		}
		checkServeGates(t, size, rep)
		t.Logf("n=%d: %.1f B/device, %.3f allocs/device, %d plan slots, %d buckets, %d virtual lanes, wall %v",
			size, c.bytesPerDev, c.allocsPerDev, rep.MesoGroupScans, rep.MesoGroupBuckets, rep.MesoGroupLanes,
			c.wall.Round(time.Millisecond))
		slots[i] = rep.MesoGroupScans
		setups[i] = setupTime(t, spec)
		t.Logf("n=%d: set-up %v", size, setups[i])
		largest = c
	}
	checkPerDeviceCost(t, sizes[len(sizes)-1], largest)
	if slots[1] > 2*slots[0] {
		t.Errorf("plan slots grew with fleet size: %d at n=%d vs %d at n=%d", slots[0], sizes[0], slots[1], sizes[1])
	}
	if setups[1] > maxSetupGrowth*setups[0] {
		t.Errorf("set-up grew with fleet size: %v at n=%d vs %v at n=%d, want at most %d×",
			setups[0], sizes[0], setups[1], sizes[1], maxSetupGrowth)
	}
}

// maxShardBytesPerDevice bounds TestShardRelease's peak live heap per
// device. A run that keeps every finished shard's engine and devices
// until the merge holds ~11 KB/device at that test's size; one that
// frees each shard as it finishes holds ~3.5 KB (3.0-3.9 KB over five
// runs).
const maxShardBytesPerDevice = 6 << 10

// TestShardRelease runs a kernel-tier meso fleet of 16 shards on two
// worker threads. A finished shard's device graph must become garbage
// when the shard returns its result, so peak live heap follows the two
// shards running at once, not all sixteen.
func TestShardRelease(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const size = 2_000
	sp := scenario.BuiltIn("meso")
	sp.Fleet.Size = size
	sp.Fleet.RateIOPS = 500
	spec, err := sp.ServeSpec(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := measureRun(t, spec, size)
	if c.rep.Shards != 16 {
		t.Fatalf("run had %d shards, want 16", c.rep.Shards)
	}
	checkServeGates(t, size, c.rep)
	t.Logf("n=%d, %d shards: %.1f B/device peak live heap, wall %v", size, c.rep.Shards, c.bytesPerDev, c.wall.Round(time.Millisecond))
	if c.bytesPerDev >= maxShardBytesPerDevice {
		t.Errorf("%.1f bytes/device peak live heap, want < %d: finished shards are not being freed", c.bytesPerDev, maxShardBytesPerDevice)
	}
}

// maxBytesPerBuildDevice bounds what a churning group-parked fleet
// allocates per extra build-time device between TestChurnGates' two
// sizes. Its churned tenth still costs per group (epoch entries, warm-up
// and drain latencies): ~31 B in all. Compiling churn from a stack of
// every build-time group measured ~71 B.
const maxBytesPerBuildDevice = 48

// TestChurnGates runs the lane-lifecycle tier at 10⁴ and 10⁵ devices:
// a group-parked fleet under a diurnal rate schedule scales out 10% of
// its devices for the peak, with a real warm-up cost, and drains them
// back after it. Every churned group must join and leave, the drain
// must finish inside the horizon, and the 10⁵ point must stay inside
// the per-device cost bounds: churn rides the bucket accounting
// instead of re-materializing the fleet. The bytes allocated per extra
// device must stay under maxBytesPerBuildDevice.
func TestChurnGates(t *testing.T) {
	sizes := []int{10_000, 100_000}
	allocs := make([]uint64, len(sizes))
	var largest runCost
	for i, size := range sizes {
		sp := scenario.BuiltIn("churn")
		sp.Fleet.Size = size
		sp.Fleet.Meso.GroupMin = 64
		sp.Fleet.Meso.Probes = 2
		sp.Fleet.Arrivals = []scenario.RateStepSpec{
			{At: 0, RateIOPS: 500},
			{At: scenario.Duration(1500 * time.Millisecond), RateIOPS: 250},
			{At: scenario.Duration(3 * time.Second), RateIOPS: 500},
		}
		sp.Fleet.Churn = []scenario.ChurnEventSpec{
			{At: scenario.Duration(time.Second), Profile: "SSD2", Add: size / 10, Warmup: scenario.Duration(200 * time.Millisecond)},
			{At: scenario.Duration(2500 * time.Millisecond), Profile: "SSD2", Remove: size / 10},
		}
		spec, err := sp.ServeSpec(sp.Runtime.D())
		if err != nil {
			t.Fatal(err)
		}
		c := measureRun(t, spec, size)
		rep := c.rep
		if rep.ChurnAdds != size/10 || rep.ChurnRemoves != size/10 {
			t.Fatalf("churn counts at n=%d: adds %d removes %d, want %d each", size, rep.ChurnAdds, rep.ChurnRemoves, size/10)
		}
		checkServeGates(t, size, rep)
		if rep.DrainMax >= spec.Horizon {
			t.Fatalf("drain recovery %v at n=%d never completed inside %v", rep.DrainMax, size, spec.Horizon)
		}
		t.Logf("n=%d: %.1f B/device, %.3f allocs/device, warm-up p50 %v, drain max %v, %d virtual lanes, wall %v",
			size, c.bytesPerDev, c.allocsPerDev, rep.WarmupP50.Round(time.Millisecond),
			rep.DrainMax.Round(time.Millisecond), rep.MesoGroupLanes, c.wall.Round(time.Millisecond))
		allocs[i] = c.allocBytes
		largest = c
	}
	checkPerDeviceCost(t, sizes[len(sizes)-1], largest)
	perDev := (float64(allocs[1]) - float64(allocs[0])) / float64(sizes[1]-sizes[0])
	t.Logf("%.1f MB → %.1f MB allocated, %.1f B per extra device", float64(allocs[0])/1e6, float64(allocs[1])/1e6, perDev)
	if perDev >= maxBytesPerBuildDevice {
		t.Errorf("%.1f bytes allocated per extra build-time device, want < %d", perDev, maxBytesPerBuildDevice)
	}
}

// maxBytesPerIO bounds what a plain mirrored fleet allocates per extra
// completed IO between two horizons. The latency log's 4-byte entry is
// most of it; the test below measures ~5 B. An 8-byte log flattened
// into a sorted copy at the end of the run measured ~18 B, and a
// closure per mirrored submit plus a latency slice grown by append and
// copied to float64 at the merge ~78 B.
const maxBytesPerIO = 12

// TestPerIOAllocGate runs one small mirrored fleet with no faults at
// two horizons and bounds the extra heap allocated per extra completed
// IO, so the serving cost tracks the fleet's work, not its IO count.
func TestPerIOAllocGate(t *testing.T) {
	run := func(horizon time.Duration) (allocBytes uint64, completed int64) {
		sp := scenario.BuiltIn("fleet-1k")
		sp.Fleet.Size = 64
		sp.Fleet.FaultFrac = 0
		spec, err := sp.ServeSpec(horizon)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rep, err := serve.Run(spec)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		checkServeGates(t, spec.Size, rep)
		return m1.TotalAlloc - m0.TotalAlloc, rep.Completed
	}
	a0, c0 := run(200 * time.Millisecond)
	a1, c1 := run(600 * time.Millisecond)
	if c1 <= c0 {
		t.Fatalf("completed %d IOs at the longer horizon, %d at the shorter", c1, c0)
	}
	perIO := (float64(a1) - float64(a0)) / float64(c1-c0)
	t.Logf("%d → %d IOs: %.1f MB → %.1f MB allocated, %.1f B per extra IO", c0, c1, float64(a0)/1e6, float64(a1)/1e6, perIO)
	if perIO >= maxBytesPerIO {
		t.Errorf("%.1f bytes allocated per extra completed IO, want < %d", perIO, maxBytesPerIO)
	}
}
