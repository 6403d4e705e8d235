package serve

import (
	"reflect"
	"testing"
	"time"

	"wattio/internal/fault"
)

// mesoBase is a fleet spec small enough for unit tests but long enough
// for lanes to dwell, park, and accumulate meaningful analytic spans.
func mesoBase() Spec {
	return Spec{
		Size:     8,
		Shards:   2,
		Horizon:  2 * time.Second,
		RateIOPS: 3000,
		Seed:     7,
	}
}

// TestMesoOffLeavesReportClean: the tier runs in every shard, so a
// meso-off run must still carry no meso or group accounting — on the
// base spec and in every pure cell of the tier matrix (churn, rates,
// faults, replicas).
func TestMesoOffLeavesReportClean(t *testing.T) {
	t.Parallel()
	specs := map[string]Spec{"base": mesoBase()}
	for _, f := range matrixFeatures {
		c := tierCell{"pure", f}
		specs[c.String()] = tierSpec(c)
	}
	for name, sp := range specs {
		r, err := Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.MesoDehydrations != 0 || r.MesoRehydrations != 0 || r.MesoParkedPeriods != 0 || r.MesoAggJ != 0 ||
			r.MesoWorstDriftFrac != 0 {
			t.Errorf("%s: meso-off run has meso accounting: %+v", name, r)
		}
		if r.MesoGroupLanes != 0 || r.MesoGroupBuckets != 0 || r.MesoGroupScans != 0 || r.MesoGroupJ != 0 {
			t.Errorf("%s: meso-off run has group accounting: %+v", name, r)
		}
		if !r.MesoDriftOK {
			t.Errorf("%s: meso-off run reports drift", name)
		}
	}
}

// TestMesoHybridRun is the tier's core contract: lanes park, simulated
// work drops hard, and energy, throughput, and every invariant probe
// stay consistent with the pure event-driven run of the same spec.
func TestMesoHybridRun(t *testing.T) {
	t.Parallel()
	off, err := Run(mesoBase())
	if err != nil {
		t.Fatal(err)
	}
	sp := mesoBase()
	sp.Meso = true
	on, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}

	if on.MesoDehydrations == 0 || on.MesoParkedPeriods == 0 {
		t.Fatalf("no lanes parked: dehydrations=%d parkedPeriods=%d", on.MesoDehydrations, on.MesoParkedPeriods)
	}
	if on.Events*2 >= off.Events {
		t.Fatalf("hybrid run dispatched %d events, pure %d — want at least 2x reduction", on.Events, off.Events)
	}
	if !on.CapOK || !on.TrackOK || !on.MesoDriftOK {
		t.Fatalf("probes failed on hybrid run: cap=%v track=%v drift=%v (worst %.4f)",
			on.CapOK, on.TrackOK, on.MesoDriftOK, on.MesoWorstDriftFrac)
	}
	if on.MesoAggJ <= 0 {
		t.Fatalf("parked spans accounted no dynamic energy: %v", on.MesoAggJ)
	}

	// The analytic population must agree with the mechanistic one it
	// replaced. The transition periods (drain + idle calibration) serve
	// no traffic, so a short run leaks a few percent; the meso
	// experiment asserts the tight bound on a long horizon.
	relDiff := func(a, b float64) float64 {
		d := (a - b) / b
		if d < 0 {
			d = -d
		}
		return d
	}
	if d := relDiff(on.AvgPowerW, off.AvgPowerW); d > 0.10 {
		t.Fatalf("hybrid energy diverged: on %.3f W, off %.3f W (%.1f%%)", on.AvgPowerW, off.AvgPowerW, 100*d)
	}
	if d := relDiff(on.ThroughputMBps, off.ThroughputMBps); d > 0.10 {
		t.Fatalf("hybrid throughput diverged: on %.3f, off %.3f MB/s (%.1f%%)", on.ThroughputMBps, off.ThroughputMBps, 100*d)
	}
	if on.Completed != on.Admitted-int64(0) && on.Completed > on.Admitted {
		t.Fatalf("synthetic counts inconsistent: completed %d > admitted %d", on.Completed, on.Admitted)
	}
}

func TestMesoDeterministic(t *testing.T) {
	t.Parallel()
	sp := mesoBase()
	sp.Meso = true
	a, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("hybrid reports differ across identical runs")
	}
}

// TestMesoBudgetStepRehydrates: a budget step must pull every parked
// lane back to mechanistic simulation before the re-plan, and tracking
// must hold across the transition.
func TestMesoBudgetStepRehydrates(t *testing.T) {
	t.Parallel()
	sp := mesoBase()
	sp.Meso = true
	sp.Budget = []BudgetStep{
		{At: 0, FleetW: 8 * 25.0},
		{At: 1 * time.Second, FleetW: 8 * 8.0},
	}
	r, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.MesoDehydrations == 0 {
		t.Fatal("no lanes parked before the budget step")
	}
	if r.MesoRehydrations == 0 {
		t.Fatal("budget step rehydrated no lanes")
	}
	if !r.TrackOK || !r.CapOK || !r.MesoDriftOK {
		t.Fatalf("probes failed across budget step: track=%v cap=%v drift=%v", r.TrackOK, r.CapOK, r.MesoDriftOK)
	}
	if r.Replans == 0 {
		t.Fatal("budget step did not re-plan")
	}
}

// TestMesoFaultedLaneStaysMechanistic: a lane with an injected fault
// window must never be represented analytically — its dropout happens
// mid-run and an aggregate would serve through it as if healthy.
func TestMesoFaultedLaneStaysMechanistic(t *testing.T) {
	t.Parallel()
	sp := mesoBase()
	sp.Meso = true
	sp.Size = 2
	sp.Shards = 1
	sp.Faults = []DeviceFault{{
		Device: InstanceName("SSD2", 0),
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
	// Only the healthy lane may park; the faulted lane serves (and
	// stalls) mechanistically, so the dropout still shows up in the
	// drain and the latency tail.
	if r.MesoDehydrations == 0 {
		t.Fatal("healthy lane never parked")
	}
	if !r.MesoDriftOK {
		t.Fatalf("drift tripped: worst %.4f", r.MesoWorstDriftFrac)
	}
	if r.ThroughputMBps != float64(r.BytesCompleted)/1e6/r.SimulatedDur.Seconds() {
		t.Fatal("throughput not derived from simulated duration")
	}
}
