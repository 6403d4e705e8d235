package adaptive

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/core"
	"wattio/internal/device"
	"wattio/internal/fault"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

// newFault wraps inner in a fault device with a profile that draws no
// randomness, failing t if the profile is invalid.
func newFault(t *testing.T, inner device.Device, eng *sim.Engine, p fault.Profile) *fault.Device {
	t.Helper()
	d, err := fault.New(inner, eng, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGovernorRetriesThroughCmdFaults(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(23)
	inner := catalog.NewSSD2(eng, rng.Stream("dev"))
	// The window end (520 ms) is off the 100 ms control grid, so the
	// transition that finally lands must come from a backed-off retry,
	// not a co-timed control tick.
	dev := newFault(t, inner, eng, fault.Profile{Windows: []fault.Window{
		{Kind: fault.PowerCmdFail, Start: 0, Dur: 520 * time.Millisecond},
	}})
	g, err := NewGovernor(eng, dev, 11, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	res := workload.Run(eng, dev, workload.Job{
		Op: device.OpWrite, Pattern: workload.Rand, BS: 256 << 10, Depth: 64,
		Runtime: 2 * time.Second, TotalBytes: 8 << 30,
	}, rng.Stream("wl"))
	g.Stop()
	if res.IOs == 0 {
		t.Fatal("no IO")
	}
	if g.Failures == 0 {
		t.Error("governor saw no command failures despite the fault window")
	}
	if g.Retries == 0 {
		t.Error("governor never retried a failed transition")
	}
	if g.Steps == 0 {
		t.Error("no transition ever applied after the window lifted")
	}
	if inner.PowerStateIndex() != 2 {
		t.Errorf("device at ps%d after recovery, want ps2 (only ps2 caps below 11 W)",
			inner.PowerStateIndex())
	}
}

func TestGovernorSetBudgetRejectsNonPositive(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(23)
	dev := catalog.NewSSD2(eng, rng)
	g, err := NewGovernor(eng, dev, 11, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetBudget(0); err == nil {
		t.Error("zero budget accepted")
	}
	if err := g.SetBudget(-3); err == nil {
		t.Error("negative budget accepted")
	}
	if g.Budget() != 11 {
		t.Errorf("rejected SetBudget still changed the budget to %v", g.Budget())
	}
	if err := g.SetBudget(9); err != nil {
		t.Errorf("valid budget rejected: %v", err)
	}
	if g.Budget() != 9 {
		t.Errorf("budget = %v, want 9", g.Budget())
	}
}

func TestGovernorZeroElapsedTickIsNoop(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(23)
	dev := catalog.NewSSD2(eng, rng)
	g, err := NewGovernor(eng, dev, 11, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	// A control step co-timed with Start has zero elapsed time; the
	// average-power division would be NaN/Inf. It must be skipped.
	g.control()
	if g.Overs != 0 || g.Steps != 0 {
		t.Errorf("zero-elapsed tick acted: overs=%d steps=%d", g.Overs, g.Steps)
	}
	g.Stop()
}

func TestRedirectorFailsOverAndDrainsBack(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(31)
	const dropStart, dropEnd = 500 * time.Millisecond, 800 * time.Millisecond
	r0 := newFault(t, catalog.NewEVO(eng, rng.Stream("r0")), eng, fault.Profile{
		Windows: []fault.Window{{Kind: fault.Dropout, Start: dropStart, Dur: dropEnd - dropStart}},
	})
	r1 := catalog.NewEVO(eng, rng.Stream("r1"))
	r2 := catalog.NewEVO(eng, rng.Stream("r2"))
	r, err := NewRedirector("mirror", []device.Device{r0, r1, r2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var atStart, atEnd []int
	eng.Schedule(dropStart, func() { atStart = r.CompletedByReplica() })
	eng.Schedule(dropEnd, func() { atEnd = r.CompletedByReplica() })
	workload.Run(eng, r, workload.Job{
		Op: device.OpRead, Pattern: workload.Rand, BS: 4 << 10,
		Arrival: workload.OpenPoisson, RateIOPS: 3000, Runtime: 1500 * time.Millisecond,
	}, rng.Stream("wl"))
	final := r.CompletedByReplica()

	if r.Failovers == 0 {
		t.Error("no failovers despite replica 0 dropping out under load")
	}
	if atStart[0] == 0 {
		t.Error("replica 0 served nothing before the dropout")
	}
	// Only IOs already in flight at drop start may land on replica 0
	// inside the window.
	if during := atEnd[0] - atStart[0]; during > 8 {
		t.Errorf("replica 0 completed %d IOs during its dropout window", during)
	}
	if after := final[0] - atEnd[0]; after == 0 {
		t.Error("no load drained back onto replica 0 after recovery")
	}
}

func TestRedirectorTotalOutageParksIO(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(31)
	const winStart, winEnd = 10 * time.Millisecond, 60 * time.Millisecond
	r0 := newFault(t, catalog.NewEVO(eng, rng.Stream("r0")), eng, fault.Profile{
		Windows: []fault.Window{{Kind: fault.Dropout, Start: winStart, Dur: winEnd - winStart}},
	})
	r, err := NewRedirector("solo", []device.Device{r0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(20 * time.Millisecond) // inside the outage
	done := false
	r.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 4096}, func() { done = true })
	for !done && eng.Step() {
	}
	if !done {
		t.Fatal("parked IO never completed")
	}
	if eng.Now() < winEnd {
		t.Errorf("IO completed at %v, before the outage ended at %v", eng.Now(), winEnd)
	}
	if r.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", r.Failovers)
	}
	if r.WakesOnDemand != 1 {
		t.Errorf("WakesOnDemand = %d, want 1", r.WakesOnDemand)
	}
}

// budgetTestModels mirrors the chaos experiment's hand-calibrated
// two-device fleet: one sample per power state.
func budgetTestModels(t *testing.T) *core.Fleet {
	t.Helper()
	mk := func(dev string, ps int, w, mbps float64) core.Sample {
		return core.Sample{
			Config:         core.Config{Device: dev, PowerState: ps, Random: true, Write: true, ChunkBytes: 256 << 10, Depth: 64},
			PowerW:         w,
			ThroughputMBps: mbps,
		}
	}
	ssd1, err := core.NewModel("SSD1", []core.Sample{
		mk("SSD1", 0, 12.0, 3300), mk("SSD1", 1, 7.0, 2400), mk("SSD1", 2, 6.0, 2000),
	})
	if err != nil {
		t.Fatal(err)
	}
	ssd2, err := core.NewModel("SSD2", []core.Sample{
		mk("SSD2", 0, 14.8, 1100), mk("SSD2", 1, 11.5, 815), mk("SSD2", 2, 9.8, 605),
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := core.NewFleet(ssd1, ssd2)
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

func TestBudgetControllerCompensatesForStuckDevice(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(41)
	ssd1 := catalog.NewSSD1(eng, rng.Stream("ssd1"))
	ssd2 := newFault(t, catalog.NewSSD2(eng, rng.Stream("ssd2")), eng, fault.Profile{
		Windows: []fault.Window{{Kind: fault.PowerCmdFail, Start: 0, Dur: time.Second}},
	})
	bc, err := NewBudgetController(budgetTestModels(t), []device.Device{ssd1, ssd2})
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained best under 22 W is SSD1 ps0 + SSD2 ps2 (21.8 W).
	// SSD2 refuses, so its ps0 worst case (14.8 W) is reserved and
	// SSD1 must tighten to ps1 (7.0 W ≤ 7.2 W remaining).
	a, err := bc.Apply(22)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Compensations != 1 {
		t.Errorf("Compensations = %d, want 1", bc.Compensations)
	}
	if len(bc.LastStuck) != 1 || bc.LastStuck[0] != "SSD2" {
		t.Errorf("LastStuck = %v, want [SSD2]", bc.LastStuck)
	}
	if ssd1.PowerStateIndex() != 1 {
		t.Errorf("SSD1 at ps%d, want ps1 (tightened around the stuck sibling)", ssd1.PowerStateIndex())
	}
	if ssd2.PowerStateIndex() != 0 {
		t.Errorf("stuck SSD2 moved to ps%d", ssd2.PowerStateIndex())
	}
	if a.Configs["SSD2"].PowerW != 14.8 {
		t.Errorf("stuck SSD2 assumed at %.1f W, want its ps0 worst case 14.8", a.Configs["SSD2"].PowerW)
	}
	if a.TotalPowerW > 22 {
		t.Errorf("final assignment %.2f W exceeds the 22 W budget", a.TotalPowerW)
	}
}

func TestBudgetControllerInfeasibleAfterStuck(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(41)
	ssd1 := catalog.NewSSD1(eng, rng.Stream("ssd1"))
	ssd2 := newFault(t, catalog.NewSSD2(eng, rng.Stream("ssd2")), eng, fault.Profile{
		Windows: []fault.Window{{Kind: fault.PowerCmdFail, Start: 0, Dur: time.Second}},
	})
	bc, err := NewBudgetController(budgetTestModels(t), []device.Device{ssd1, ssd2})
	if err != nil {
		t.Fatal(err)
	}
	// 17 W fits SSD1 ps1 + SSD2 ps2, but once SSD2 sticks at its
	// 14.8 W worst case only 2.2 W remain — below SSD1's minimum.
	if _, err := bc.Apply(17); err == nil {
		t.Error("infeasible post-compensation budget accepted")
	}
	if bc.Compensations != 1 {
		t.Errorf("Compensations = %d, want 1", bc.Compensations)
	}
}

// TestBudgetControllerCompensationMatchesOracle runs compensation
// passes over 62 identical SSD2 models with three devices refusing
// commands. Each Apply must return the stuck devices at their reserved
// worst-case points plus exactly what a fresh fleet of the free devices
// picks under the budget left after that reserve, and must leave every
// free device in its assigned power state.
func TestBudgetControllerCompensationMatchesOracle(t *testing.T) {
	t.Parallel()
	const n = 62
	eng := sim.NewEngine()
	rng := sim.NewRNG(5)
	devs := make([]device.Device, n)
	models := make([]*core.Model, n)
	refusing := map[string]bool{}
	for i := range devs {
		name := fmt.Sprintf("ssd%02d", i)
		d, ok := catalog.NewNamed("SSD2", name, eng, rng.Stream(name))
		if !ok {
			t.Fatal("no SSD2 in the catalog")
		}
		if i == 4 || i == 30 || i == 57 {
			d = newFault(t, d, eng, fault.Profile{
				Windows: []fault.Window{{Kind: fault.PowerCmdFail, Start: 0, Dur: time.Second}},
			})
			refusing[name] = true
		}
		devs[i] = d
		var samples []core.Sample
		for ps, p := range [][2]float64{{14.4, 3100}, {11.7, 2230}, {9.7, 1590}} {
			samples = append(samples, core.Sample{
				Config:         core.Config{Device: name, PowerState: ps, Random: true, Write: true, ChunkBytes: 256 << 10, Depth: 64},
				PowerW:         p[0],
				ThroughputMBps: p[1],
			})
		}
		m, err := core.NewModel(name, samples)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	fleet, err := core.NewFleet(models...)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := NewBudgetController(fleet, devs)
	if err != nil {
		t.Fatal(err)
	}
	for _, perDev := range []float64{11, 10.5, 12, 11} {
		budget := perDev * n
		got, err := bc.Apply(budget)
		if err != nil {
			t.Fatal(err)
		}
		// The oracle: every refusing device stays at ps0 and is reserved
		// at its ps0 draw, summed in fleet order as Apply does.
		var reserve float64
		var free []*core.Model
		stuck := map[string]core.Sample{}
		for i, m := range models {
			if !refusing[m.Device()] {
				free = append(free, m)
				continue
			}
			if ps := devs[i].PowerStateIndex(); ps != 0 {
				t.Fatalf("refusing device %s moved to ps%d", m.Device(), ps)
			}
			stuck[m.Device()] = m.Samples()[0]
			reserve += stuck[m.Device()].PowerW
		}
		sub, err := core.NewFleet(free...)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := sub.BestUnderPower(budget - reserve)
		if !ok {
			t.Fatalf("oracle: nothing fits %.1f W after a %.1f W reserve", budget, reserve)
		}
		for _, name := range bc.LastStuck {
			want.Configs[name] = stuck[name]
			want.TotalPowerW += stuck[name].PowerW
			want.TotalMBps += stuck[name].ThroughputMBps
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Apply(%.0f W) = %.6f W, %.6f MB/s; oracle %.6f W, %.6f MB/s",
				budget, got.TotalPowerW, got.TotalMBps, want.TotalPowerW, want.TotalMBps)
		}
		if want := []string{"ssd04", "ssd30", "ssd57"}; !reflect.DeepEqual(bc.LastStuck, want) {
			t.Fatalf("LastStuck = %v, want %v", bc.LastStuck, want)
		}
		for i, m := range models {
			if refusing[m.Device()] {
				continue
			}
			if ps := devs[i].PowerStateIndex(); ps != got.Configs[m.Device()].PowerState {
				t.Fatalf("%s in ps%d, assigned ps%d", m.Device(), ps, got.Configs[m.Device()].PowerState)
			}
		}
	}
	if bc.Compensations != 4 {
		t.Fatalf("Compensations = %d, want one per Apply", bc.Compensations)
	}
}

func TestRolloutQuarantine(t *testing.T) {
	t.Parallel()
	leaf := func(name string) *Domain { return &Domain{Name: name} }
	rack0 := &Domain{Name: "rack0", Children: []*Domain{leaf("a"), leaf("b"), leaf("c")}}
	rack1 := &Domain{Name: "rack1", Children: []*Domain{leaf("d"), leaf("e"), leaf("f")}}
	root := &Domain{Name: "dc", Children: []*Domain{rack0, rack1}}
	ro := NewRollout(root)

	staged := ro.Stage(2)
	if len(staged) != 2 {
		t.Fatalf("staged %d leaves, want 2", len(staged))
	}
	bad := staged[0]
	if err := ro.Quarantine(bad); err != nil {
		t.Fatal(err)
	}
	if ro.Enabled(bad) || ro.EnabledCount() != 1 {
		t.Errorf("quarantined leaf enabled=%v, enabled count %d, want false/1",
			ro.Enabled(bad), ro.EnabledCount())
	}
	if err := ro.Quarantine(bad); err == nil {
		t.Error("quarantining a disabled leaf accepted")
	}

	// Later stages must not re-enable the quarantined leaf.
	for _, d := range ro.Stage(10) {
		if d == bad {
			t.Error("Stage re-enabled a quarantined leaf")
		}
	}
	if ro.EnabledCount() != 5 {
		t.Errorf("enabled = %d, want 5 (all but the quarantined leaf)", ro.EnabledCount())
	}
}

func TestRolloutAuditAndQuarantine(t *testing.T) {
	t.Parallel()
	a, b := &Domain{Name: "a"}, &Domain{Name: "b"}
	root := &Domain{Name: "dc", Children: []*Domain{a, b}}
	ro := NewRollout(root)
	ro.Stage(2)
	power := map[*Domain]float64{a: 14.8, b: 10.1}
	failing := ro.AuditAndQuarantine(func(d *Domain) float64 { return power[d] }, 12)
	if len(failing) != 1 || failing[0] != a {
		t.Fatalf("audit quarantined %v, want [a]", failing)
	}
	if ro.Enabled(a) || !ro.Enabled(b) || ro.EnabledCount() != 1 {
		t.Errorf("after audit enabled a=%v b=%v count %d, want false/true/1",
			ro.Enabled(a), ro.Enabled(b), ro.EnabledCount())
	}
	if again := ro.Stage(10); len(again) != 0 {
		t.Errorf("Stage after audit enabled %v, want none (a is quarantined)", again)
	}
}
