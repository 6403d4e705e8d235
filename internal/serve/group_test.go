package serve

import (
	"testing"
	"time"

	"wattio/internal/detcheck"
	"wattio/internal/fault"
)

// groupBase: big enough for real cohorts per shard, small enough for
// unit tests. 64 lanes over 2 shards → 32 members per shard cohort,
// with 2 resident probes each: 30 virtual members per shard.
func groupBase() Spec {
	return Spec{
		Size:         64,
		Shards:       2,
		Horizon:      2 * time.Second,
		RateIOPS:     3000,
		Seed:         7,
		Meso:         true,
		MesoGroupMin: 4,
	}
}

func TestGroupSpecValidation(t *testing.T) {
	t.Parallel()
	sp := groupBase()
	sp.Meso = false
	if _, err := Run(sp); err == nil {
		t.Fatal("group parking without the meso tier must be rejected")
	}
	sp = groupBase()
	sp.MesoGroupMin = 0
	sp.MesoProbes = 2
	if _, err := Run(sp); err == nil {
		t.Fatal("probe count without group parking must be rejected")
	}
	sp = groupBase()
	sp.MesoGroupMin = -1
	if _, err := Run(sp); err == nil {
		t.Fatal("negative group minimum must be rejected")
	}
}

// TestGroupOffLeavesReportClean: plain meso runs carry no group
// accounting, so goldens and existing reports are unaffected.
func TestGroupOffLeavesReportClean(t *testing.T) {
	t.Parallel()
	sp := groupBase()
	sp.MesoGroupMin = 0
	r, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.MesoGroupLanes != 0 || r.MesoGroupBuckets != 0 || r.MesoGroupScans != 0 || r.MesoGroupJ != 0 {
		t.Fatalf("group accounting on a group-off run: %+v", r)
	}
}

// TestGroupParkingEquivalence is the tier's core contract: virtualizing
// most of a cohort behind probe-calibrated buckets must agree with the
// per-lane-parked run of the same spec within the meso energy gate,
// while shrinking mechanistic work by about the virtualization ratio.
func TestGroupParkingEquivalence(t *testing.T) {
	t.Parallel()
	perLane := groupBase()
	perLane.MesoGroupMin = 0
	pl, err := Run(perLane)
	if err != nil {
		t.Fatal(err)
	}
	pure := groupBase()
	pure.MesoGroupMin = 0
	pure.Meso = false
	pu, err := Run(pure)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Run(groupBase())
	if err != nil {
		t.Fatal(err)
	}

	if gr.MesoGroupLanes == 0 || gr.MesoGroupBuckets == 0 {
		t.Fatalf("nothing virtualized: lanes=%d buckets=%d", gr.MesoGroupLanes, gr.MesoGroupBuckets)
	}
	// 64 lanes, 2 shards, 2 probes each → 60 virtual.
	if gr.MesoGroupLanes != 60 {
		t.Fatalf("MesoGroupLanes = %d, want 60", gr.MesoGroupLanes)
	}
	if gr.MesoGroupJ <= 0 {
		t.Fatalf("virtual population accounted no energy: %v", gr.MesoGroupJ)
	}
	if !gr.CapOK || !gr.TrackOK || !gr.MesoDriftOK {
		t.Fatalf("probes failed: cap=%v track=%v drift=%v (worst %.4f)",
			gr.CapOK, gr.TrackOK, gr.MesoDriftOK, gr.MesoWorstDriftFrac)
	}
	// Virtual members dispatch no kernel events at all; only the probes
	// serve mechanistically.
	if gr.Events*4 >= pl.Events {
		t.Fatalf("group run dispatched %d events, per-lane %d — want at least 4x reduction", gr.Events, pl.Events)
	}

	relDiff := func(a, b float64) float64 {
		d := (a - b) / b
		if d < 0 {
			d = -d
		}
		return d
	}
	if d := relDiff(gr.AvgPowerW, pl.AvgPowerW); d > 0.10 {
		t.Fatalf("group energy diverged: group %.3f W, per-lane %.3f W (%.1f%%)", gr.AvgPowerW, pl.AvgPowerW, 100*d)
	}
	// Virtual members serve the offered rate for the whole horizon —
	// they never spend periods draining or idle-calibrating — so their
	// throughput reference is the pure mechanistic run (per-lane meso
	// legitimately under-serves by its transition periods).
	if d := relDiff(gr.ThroughputMBps, pu.ThroughputMBps); d > 0.10 {
		t.Fatalf("group throughput diverged: group %.3f, pure %.3f MB/s (%.1f%%)", gr.ThroughputMBps, pu.ThroughputMBps, 100*d)
	}
	if d := relDiff(gr.AvgPowerW, pu.AvgPowerW); d > 0.10 {
		t.Fatalf("group energy diverged from pure run: group %.3f W, pure %.3f W (%.1f%%)", gr.AvgPowerW, pu.AvgPowerW, 100*d)
	}
}

// TestGroupBudgetStepSplitsBuckets: a budget step tight enough to
// spread a cohort across power states must split its bucket, keep the
// plan work bucket-shaped (scans ≪ lanes), and hold every gate.
func groupStepSpec() Spec {
	sp := groupBase()
	// SSD2's ladder is ps2 (9.7 W), ps1 (11.7 W) and ps0 (14.4 W). Base
	// is 64×9.7 = 620.8 W; the step leaves each shard 70.5 W above its
	// base, enough to lift all 32 lanes of its cohort to ps1 and two on
	// to ps0, so each shard cohort splits across two buckets.
	sp.Budget = []BudgetStep{
		{At: 0, FleetW: 64 * 14.6},
		{At: 1 * time.Second, FleetW: 64*9.7 + 30*4.7},
	}
	return sp
}

func TestGroupBudgetStepSplitsBuckets(t *testing.T) {
	t.Parallel()
	r, err := Run(groupStepSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Two shards, one cohort each: ≥2 buckets per shard after the split.
	if r.MesoGroupBuckets < 4 {
		t.Fatalf("budget step did not split buckets: %d", r.MesoGroupBuckets)
	}
	if r.Replans < 4 {
		t.Fatalf("Replans = %d, want both steps on both shards", r.Replans)
	}
	// The control-period scan is bucket-shaped: every re-plan touches
	// O(ladder levels) slots, never O(lanes).
	if r.MesoGroupScans >= r.Devices {
		t.Fatalf("group scan work O(lanes): %d slots for %d devices", r.MesoGroupScans, r.Devices)
	}
	if !r.TrackOK || !r.CapOK || !r.MesoDriftOK {
		t.Fatalf("probes failed across bucket split: track=%v cap=%v drift=%v (worst %.4f)",
			r.TrackOK, r.CapOK, r.MesoDriftOK, r.MesoWorstDriftFrac)
	}
	if r.MesoParkedPeriods == 0 {
		t.Fatal("virtual members counted no parked periods")
	}
}

// TestGroupDeterministic: bit-identical reports across GOMAXPROCS on
// the bucket-splitting spec — the group tier's rehydration storm.
// Not parallel: detcheck pins GOMAXPROCS.
func TestGroupDeterministic(t *testing.T) {
	detcheck.Assert(t, func() (*Report, error) { return Run(groupStepSpec()) }, detcheck.Config[*Report]{
		Procs: []int{1, 4, 8},
		Diff: func(t testing.TB, a, b *Report) {
			t.Logf("reference: %+v", a)
			t.Logf("divergent: %+v", b)
		},
	})
}

// TestGroupFaultedMemberStaysResident: fault-injected members of a
// virtualized cohort must materialize and serve mechanistically — an
// aggregate would serve through the dropout as if healthy.
func TestGroupFaultedMemberStaysResident(t *testing.T) {
	t.Parallel()
	sp := groupBase()
	sp.Shards = 1
	// Instance 40 is far past the probe prefix — without the fault it
	// would be virtual.
	sp.Faults = []DeviceFault{{
		Device: InstanceName("SSD2", 40),
		Windows: []fault.Window{
			{Kind: fault.Dropout, Start: 500 * time.Millisecond, Dur: 400 * time.Millisecond},
		},
	}}
	r, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Faulted != 1 {
		t.Fatalf("Faulted = %d, want 1", r.Faulted)
	}
	// 64 members, 2 probes + 1 faulted resident → 61 virtual.
	if r.MesoGroupLanes != 61 {
		t.Fatalf("MesoGroupLanes = %d, want 61", r.MesoGroupLanes)
	}
	// Replicas=1 means no redirector: the dropout's mechanistic trace is
	// the held IO's latency tail, close to the 400 ms window.
	if r.Failovers == 0 && r.LatMax < 300*time.Millisecond {
		t.Fatalf("dropout left no mechanistic trace: failovers=%d latMax=%v", r.Failovers, r.LatMax)
	}
	if !r.MesoDriftOK {
		t.Fatalf("drift tripped: worst %.4f", r.MesoWorstDriftFrac)
	}
}
