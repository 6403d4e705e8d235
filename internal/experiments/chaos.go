package experiments

import (
	"fmt"
	"io"
	"time"

	"wattio/internal/adaptive"
	"wattio/internal/catalog"
	"wattio/internal/core"
	"wattio/internal/device"
	"wattio/internal/fault"
	"wattio/internal/scenario"
	"wattio/internal/sim"
	"wattio/internal/telemetry/invariant"
	"wattio/internal/workload"
)

// The chaos experiment runs the adaptive control plane against devices
// that do NOT obey every command — §4.1's "local failures of the
// storage system to control power", made deterministic by
// internal/fault. Four phases, each on its own engine:
//
//  1. governor: SSD2 refuses SetPowerState for the first half of the
//     run; the governor must retry with backoff and land the throttle
//     once the fault clears. A sliding-window cap probe checks the
//     post-recovery power, and an energy probe checks conservation
//     across the fault window.
//  2. redirector: one of three mirrored EVO replicas drops out
//     mid-run; IO must fail over to its siblings and drain back after
//     recovery.
//  3. budget: a fleet device refuses to throttle; the budget
//     controller reserves its worst-case draw and tightens its
//     sibling's state so the fleet still fits the budget.
//  4. rollout: a staged leaf domain cannot apply its power cap; the
//     power audit catches it and the rollout quarantines the leaf,
//     skipping it in later stages.

// The chaos phases' fixed parameters.
const (
	chaosGovBudgetW  = 11.0                  // governor phase: SSD2's device budget (W)
	chaosGovControl  = 50 * time.Millisecond // governor phase: control period
	chaosIOErrorProb = 0.2                   // governor phase: transient IO-error probability in its window

	chaosReplicas = 3    // redirector phase: mirrored EVOs
	chaosActive   = 2    // redirector phase: replicas serving at once
	chaosRateIOPS = 3000 // redirector phase: Poisson read rate

	chaosFleetBudgetW = 22.0 // budget phase: the two-device fleet budget (W)

	chaosRacks         = 2    // rollout phase: racks in the row
	chaosLeavesPerRack = 3    // rollout phase: leaf domains per rack
	chaosStaged        = 4    // rollout phase: leaves enabled in the first stage
	chaosRestaged      = 2    // rollout phase: leaves the next stage asks for
	chaosAuditW        = 12.0 // rollout phase: power-audit threshold (W)
	chaosCapState      = 2    // rollout phase: the power state enablement applies
)

// ChaosReport holds the chaos experiment's measured outcomes; the
// chaos tests assert recovery end to end on these fields.
type ChaosReport struct {
	// Phase 1: governor vs. power-command faults.
	GovFaultEnd     time.Duration // scripted fault window [0, GovFaultEnd)
	GovFailures     int
	GovRetries      int
	GovSteps        int
	GovRecoveryLat  time.Duration // fault end → first applied transition
	GovFinalState   int
	GovWorstWindowW float64 // post-recovery sliding-window average
	GovCapOK        bool    // cap probe Check over the post-recovery tail
	GovEnergyOK     bool    // energy conservation across the fault window
	GovIORetries    int     // transient-IO-error retries drawn from FaultSeed

	// Phase 2: redirector vs. replica dropout.
	RedirFailovers     int
	RedirDropStart     time.Duration
	RedirDropEnd       time.Duration
	RedirBefore        []int // per-replica completions at drop start
	RedirDuring        []int // completions gained inside the drop window
	RedirAfter         []int // completions gained after recovery
	RedirWakesOnDemand int

	// Phase 3: budget controller vs. a device refusing to throttle.
	BudgetW             float64
	BudgetCompensations int
	BudgetStuck         []string
	BudgetAssignment    core.Assignment
	BudgetSiblingState  int // power state the healthy sibling was tightened to

	// Phase 4: rollout power audit vs. an uncappable leaf.
	RolloutStaged      []string
	RolloutQuarantined []string
	RolloutRestaged    []string
	RolloutLeafAvgW    map[string]float64
}

// chaosDur bounds one chaos phase: at least 2 s of virtual time so
// fault windows and recovery both get room, at most 6 s so paper scale
// does not pay a minute per phase for no extra information.
func chaosDur(sp *scenario.Spec) time.Duration {
	d := sp.Horizon()
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	if d > 6*time.Second {
		d = 6 * time.Second
	}
	return d
}

// Chaos runs all four phases and returns the measured report. The spec
// supplies the seeds and the horizon the window placements derive from.
func Chaos(sp *scenario.Spec) (*ChaosReport, error) {
	r := &ChaosReport{}
	if err := chaosGovernor(sp, r); err != nil {
		return nil, fmt.Errorf("chaos governor phase: %w", err)
	}
	if err := chaosRedirector(sp, r); err != nil {
		return nil, fmt.Errorf("chaos redirector phase: %w", err)
	}
	if err := chaosBudget(sp, r); err != nil {
		return nil, fmt.Errorf("chaos budget phase: %w", err)
	}
	if err := chaosRollout(sp, r); err != nil {
		return nil, fmt.Errorf("chaos rollout phase: %w", err)
	}
	return r, nil
}

// chaosGovernor: saturating writes on SSD2 under its device budget
// while SetPowerState fails for the first half of the run.
func chaosGovernor(sp *scenario.Spec, r *ChaosReport) error {
	eng := sim.NewEngine()
	rng := sim.NewRNG(sp.Seed)
	frng := sim.NewRNG(sp.FaultSeed)
	dur := chaosDur(sp)

	// End the window off the 50 ms control grid so recovery visibly
	// comes from a backed-off retry, not a coincident control tick.
	r.GovFaultEnd = dur/2 + 20*time.Millisecond

	dev := catalog.NewSSD2(eng, rng.Stream("ssd2"))
	// Alongside the scripted command fault, a probabilistic transient
	// IO-error episode (drawn from FaultSeed) overlaps the first half —
	// retries surface as latency, exercising the seed-dependent path.
	fd, err := fault.New(dev, eng, frng.Stream("ssd2"), fault.Profile{
		Windows: []fault.Window{
			{Kind: fault.PowerCmdFail, Start: 0, Dur: r.GovFaultEnd},
			{Kind: fault.IOError, Start: dur / 4, Dur: dur / 8, Prob: chaosIOErrorProb},
		},
	})
	if err != nil {
		return err
	}
	g, err := adaptive.NewGovernor(eng, fd, chaosGovBudgetW, chaosGovControl)
	if err != nil {
		return err
	}

	ep := invariant.AttachEnergy(eng, dev, 250*time.Microsecond)

	// Watch for the first applied transition so recovery latency is
	// measured, not inferred.
	var recoveredAt time.Duration
	var watchT *sim.Timer
	var watch func()
	watch = func() {
		if fd.PowerStateIndex() != 0 {
			recoveredAt = eng.Now()
			return
		}
		if watchT == nil {
			watchT = eng.After(5*time.Millisecond, watch)
		} else {
			watchT.RescheduleAfter(5 * time.Millisecond)
		}
	}
	watch()

	// The cap probe covers only the post-recovery tail: inside the
	// fault window the device legitimately violates the budget — that
	// is the fault — so "no violation outside the scripted windows" is
	// what the probe must certify.
	var capProbe *invariant.CapProbe
	eng.Post(3*dur/4, func() {
		capProbe = invariant.AttachCap(eng, fd, chaosGovBudgetW, dur/8, 5*time.Millisecond)
	})

	g.Start()
	workload.Run(eng, fd, workload.Job{
		Op: device.OpWrite, Pattern: workload.Rand, BS: 256 << 10, Depth: 64,
		Runtime: dur,
	}, rng)
	g.Stop()

	r.GovFailures = g.Failures
	r.GovRetries = g.Retries
	r.GovIORetries = fd.Retries()
	r.GovSteps = g.Steps
	r.GovFinalState = fd.PowerStateIndex()
	if recoveredAt > 0 {
		r.GovRecoveryLat = recoveredAt - r.GovFaultEnd
	} else {
		r.GovRecoveryLat = -1
	}
	if capProbe != nil {
		capProbe.Stop()
		r.GovWorstWindowW = capProbe.WorstWindowW()
		r.GovCapOK = capProbe.Check(0.10) == nil
	}
	ep.Stop()
	r.GovEnergyOK = ep.Check(0.05) == nil
	return nil
}

// chaosRedirector: mirrored EVOs, open-loop reads; replica 0 drops out
// for the second quarter of the run.
func chaosRedirector(sp *scenario.Spec, r *ChaosReport) error {
	eng := sim.NewEngine()
	rng := sim.NewRNG(sp.Seed)
	frng := sim.NewRNG(sp.FaultSeed)
	dur := chaosDur(sp)
	// The workload starts after a 1 s settle period; the dropout
	// window is scripted in absolute virtual time to cover the second
	// quarter of the workload.
	const settle = time.Second
	r.RedirDropStart, r.RedirDropEnd = dur/4, dur/2

	devs := make([]device.Device, chaosReplicas)
	for i := range devs {
		d := catalog.NewEVO(eng, rng.Stream(fmt.Sprint("replica", i)))
		if i == 0 {
			fd, err := fault.New(d, eng, frng.Stream("replica0"), fault.Profile{
				Windows: []fault.Window{{Kind: fault.Dropout, Start: settle + r.RedirDropStart, Dur: r.RedirDropEnd - r.RedirDropStart}},
			})
			if err != nil {
				return err
			}
			devs[i] = fd
		} else {
			devs[i] = d
		}
	}
	mirror, err := adaptive.NewRedirector("mirror", devs, chaosActive)
	if err != nil {
		return err
	}
	eng.RunUntil(eng.Now() + settle) // settle standby transitions

	var atDrop, atRecover []int
	eng.Post(eng.Now()+r.RedirDropStart, func() { atDrop = mirror.CompletedByReplica() })
	eng.Post(eng.Now()+r.RedirDropEnd, func() { atRecover = mirror.CompletedByReplica() })

	workload.Run(eng, mirror, workload.Job{
		Op: device.OpRead, Pattern: workload.Rand, BS: 4 << 10,
		Arrival: workload.OpenPoisson, RateIOPS: chaosRateIOPS, Runtime: dur,
	}, rng)

	final := mirror.CompletedByReplica()
	r.RedirFailovers = mirror.Failovers
	r.RedirWakesOnDemand = mirror.WakesOnDemand
	r.RedirBefore = atDrop
	r.RedirDuring = make([]int, chaosReplicas)
	r.RedirAfter = make([]int, chaosReplicas)
	for i := 0; i < chaosReplicas; i++ {
		r.RedirDuring[i] = atRecover[i] - atDrop[i]
		r.RedirAfter[i] = final[i] - atRecover[i]
	}
	return nil
}

// chaosModels builds the compact hand-calibrated fleet models the
// budget phase plans over: one sample per power state, numbers drawn
// from the devices' measured quick-scale behavior.
func chaosModels() (*core.Fleet, error) {
	mk := func(dev string, ps int, w, mbps float64) core.Sample {
		return core.Sample{
			Config:         core.Config{Device: dev, PowerState: ps, Random: true, Write: true, ChunkBytes: 256 << 10, Depth: 64},
			PowerW:         w,
			ThroughputMBps: mbps,
		}
	}
	ssd1, err := core.NewModel("SSD1", []core.Sample{
		mk("SSD1", 0, 12.0, 3300),
		mk("SSD1", 1, 7.0, 2400),
		mk("SSD1", 2, 6.0, 2000),
	})
	if err != nil {
		return nil, err
	}
	ssd2, err := core.NewModel("SSD2", []core.Sample{
		mk("SSD2", 0, 14.8, 1100),
		mk("SSD2", 1, 11.5, 815),
		mk("SSD2", 2, 9.8, 605),
	})
	if err != nil {
		return nil, err
	}
	return core.NewFleet(ssd1, ssd2)
}

// chaosBudget: SSD2 refuses every power command; Apply must reserve
// its ps0 worst case and tighten SSD1 instead.
func chaosBudget(sp *scenario.Spec, r *ChaosReport) error {
	eng := sim.NewEngine()
	rng := sim.NewRNG(sp.Seed)
	frng := sim.NewRNG(sp.FaultSeed)
	dur := chaosDur(sp)

	ssd1 := catalog.NewSSD1(eng, rng.Stream("ssd1"))
	ssd2, err := fault.New(catalog.NewSSD2(eng, rng.Stream("ssd2")), eng, frng.Stream("budget"), fault.Profile{
		Windows: []fault.Window{{Kind: fault.PowerCmdFail, Start: 0, Dur: dur}},
	})
	if err != nil {
		return err
	}
	fleet, err := chaosModels()
	if err != nil {
		return err
	}
	bc, err := adaptive.NewBudgetController(fleet, []device.Device{ssd1, ssd2})
	if err != nil {
		return err
	}

	r.BudgetW = chaosFleetBudgetW
	a, err := bc.Apply(r.BudgetW)
	if err != nil {
		return err
	}
	r.BudgetCompensations = bc.Compensations
	r.BudgetStuck = bc.LastStuck
	r.BudgetAssignment = a
	r.BudgetSiblingState = ssd1.PowerStateIndex()
	return nil
}

// chaosRollout: a leaf grid with a staged subset; one staged leaf
// cannot apply its cap, fails the power audit, and is quarantined.
func chaosRollout(sp *scenario.Spec, r *ChaosReport) error {
	eng := sim.NewEngine()
	rng := sim.NewRNG(sp.Seed)
	frng := sim.NewRNG(sp.FaultSeed)
	dur := chaosDur(sp)
	wdur := dur
	if wdur > time.Second {
		wdur = time.Second
	}

	root := &adaptive.Domain{Name: "row"}
	leafDev := map[*adaptive.Domain]device.Device{}
	for ri := 0; ri < chaosRacks; ri++ {
		rack := &adaptive.Domain{Name: fmt.Sprintf("rack%d", ri)}
		for li := 0; li < chaosLeavesPerRack; li++ {
			name := fmt.Sprintf("rack%d/leaf%d", ri, li)
			d := device.Device(catalog.NewSSD2(eng, rng.Stream(name)))
			if ri == 0 && li == 0 {
				fd, err := fault.New(d, eng, frng.Stream(name), fault.Profile{
					Windows: []fault.Window{{Kind: fault.PowerCmdFail, Start: 0, Dur: dur}},
				})
				if err != nil {
					return err
				}
				d = fd
			}
			leaf := &adaptive.Domain{Name: name, Devices: []device.Device{d}}
			leafDev[leaf] = d
			rack.Children = append(rack.Children, leaf)
		}
		root.Children = append(root.Children, rack)
	}

	rollout := adaptive.NewRollout(root)
	staged := rollout.Stage(chaosStaged)
	for _, leaf := range staged {
		r.RolloutStaged = append(r.RolloutStaged, leaf.Name)
		// Enablement applies the deepest cap; the faulted leaf refuses
		// and keeps drawing full power — exactly what the audit hunts.
		leafDev[leaf].SetPowerState(chaosCapState)
	}

	e0 := map[*adaptive.Domain]float64{}
	for _, leaf := range staged {
		e0[leaf] = leaf.EnergyJ()
		workload.Start(eng, leafDev[leaf], workload.Job{
			Op: device.OpWrite, Pattern: workload.Rand, BS: 256 << 10, Depth: 64,
			Runtime: wdur,
		}, rng.Stream("wl-"+leaf.Name))
	}
	eng.RunUntil(eng.Now() + wdur)

	r.RolloutLeafAvgW = map[string]float64{}
	measure := func(d *adaptive.Domain) float64 {
		avg := (d.EnergyJ() - e0[d]) / wdur.Seconds()
		r.RolloutLeafAvgW[d.Name] = avg
		return avg
	}
	// SSD2 at ps2 sustains ~10.5 W under saturating writes; at ps0 it
	// draws ~14.8 W. The 12 W threshold splits the two cleanly.
	for _, d := range rollout.AuditAndQuarantine(measure, chaosAuditW) {
		r.RolloutQuarantined = append(r.RolloutQuarantined, d.Name)
	}
	for _, d := range rollout.Stage(chaosRestaged) {
		r.RolloutRestaged = append(r.RolloutRestaged, d.Name)
	}
	return nil
}

func init() {
	register("chaos", "Extension: fault injection for the power-control plane (§4.1 local control failures)", func(sp *scenario.Spec, w io.Writer, _ *CSV) error {
		r, err := Chaos(sp)
		if err != nil {
			return err
		}
		section(w, "Extension: chaos — adaptive control under injected faults")

		fmt.Fprintf(w, "governor (SSD2, %g W budget, SetPowerState refused for [0, %v)):\n", chaosGovBudgetW, r.GovFaultEnd)
		fmt.Fprintf(w, "  cmd failures %d, retries %d, applied steps %d, final state ps%d\n",
			r.GovFailures, r.GovRetries, r.GovSteps, r.GovFinalState)
		fmt.Fprintf(w, "  transient IO-error retries (fault seed draws): %d\n", r.GovIORetries)
		fmt.Fprintf(w, "  recovery latency after fault cleared: %v\n", r.GovRecoveryLat.Round(time.Millisecond))
		fmt.Fprintf(w, "  post-recovery worst sliding-window power: %.2f W (cap ok: %v, energy conserved: %v)\n",
			r.GovWorstWindowW, r.GovCapOK, r.GovEnergyOK)

		fmt.Fprintf(w, "redirector (%d mirrored EVOs, replica 0 drops for [%v, %v)):\n", chaosReplicas, r.RedirDropStart, r.RedirDropEnd)
		fmt.Fprintf(w, "  failovers %d, wakes-on-demand %d\n", r.RedirFailovers, r.RedirWakesOnDemand)
		fmt.Fprintf(w, "  per-replica IOs  before drop: %v  during drop: %v  after recovery: %v\n",
			r.RedirBefore, r.RedirDuring, r.RedirAfter)

		fmt.Fprintf(w, "budget (%.0f W fleet budget, SSD2 refuses to throttle):\n", r.BudgetW)
		fmt.Fprintf(w, "  compensations %d, stuck %v, sibling SSD1 tightened to ps%d\n",
			r.BudgetCompensations, r.BudgetStuck, r.BudgetSiblingState)
		fmt.Fprintf(w, "  final plan: %.2f W total, %.0f MB/s total\n",
			r.BudgetAssignment.TotalPowerW, r.BudgetAssignment.TotalMBps)

		fmt.Fprintf(w, "rollout (%d leaves / %d racks, %d staged, rack0/leaf0 cannot apply its cap):\n",
			chaosRacks*chaosLeavesPerRack, chaosRacks, chaosStaged)
		fmt.Fprintf(w, "  staged %v\n", r.RolloutStaged)
		for _, name := range r.RolloutStaged {
			fmt.Fprintf(w, "    %-14s %.2f W avg\n", name, r.RolloutLeafAvgW[name])
		}
		fmt.Fprintf(w, "  quarantined after audit (>%g W): %v\n", chaosAuditW, r.RolloutQuarantined)
		fmt.Fprintf(w, "  next stage skips quarantine: %v\n", r.RolloutRestaged)

		fmt.Fprintln(w, "\n§4.1 reading: every local control failure is caught by a feedback layer —")
		fmt.Fprintln(w, "retries land the throttle, IO routes around dropouts, budgets re-plan around")
		fmt.Fprintln(w, "stuck devices, and audits quarantine leaves that cannot control their power.")
		return nil
	})
}
