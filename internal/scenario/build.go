package scenario

import (
	"fmt"
	"time"

	"wattio/internal/calib"
	"wattio/internal/fault"
	"wattio/internal/serve"
	"wattio/internal/workload"
)

// Fleet-experiment defaults the builders fill into zero fleet fields.
// The stepped budget walks the fleet down to its low-power plan and
// partway back up, so one run shows both a curtailment (load shed,
// tail inflation) and a recovery.
const (
	fleetDefaultSize = 64
	fleetDefaultRate = 7000 // IOPS per serving device: above ps2's saturated rate, below ps0's
	fleetHighPD      = 14.6 // W per device: everything at ps0
	fleetLowPD       = 10.5 // forces most of the fleet to ps2
	fleetMidPD       = 12.0 // recovery: ps1 becomes affordable
)

// ServeSpec materializes the spec's fleet section (nil = all defaults)
// into the serving engine's spec, with horizon as the virtual serving
// time. Budget semantics: "" takes the stepped curtail-and-recover
// default, "max" a never-binding budget, anything else a
// serve.ParseSchedule schedule scaled by the resolved fleet size. An
// enabled calib stanza fits a model per profile (memoized per class)
// into the spec's Fitted map.
func (s *Spec) ServeSpec(horizon time.Duration) (serve.Spec, error) {
	sp, err := s.serveSpec(horizon)
	if err != nil {
		return serve.Spec{}, err
	}
	if f := s.Fleet; f != nil && f.Calib != nil && f.Calib.Enable {
		profiles := sp.Profiles
		if len(profiles) == 0 {
			profiles = []string{"SSD2"}
		}
		sp.Fitted = make(map[string]*calib.Model, len(profiles))
		for _, p := range profiles {
			fit, err := calib.FitClass(p, calib.Options{})
			if err != nil {
				return serve.Spec{}, pathErr("fleet.calib", "%v", err)
			}
			sp.Fitted[p] = fit.Model
		}
	}
	return sp, nil
}

// serveSpec is ServeSpec without the fitting: the conversion validation
// checks a fleet stanza through.
func (s *Spec) serveSpec(horizon time.Duration) (serve.Spec, error) {
	f := s.Fleet
	if f == nil {
		f = &FleetSpec{}
	}
	size := f.Size
	if size == 0 {
		size = fleetDefaultSize
	}
	rate := f.RateIOPS
	if rate == 0 {
		rate = fleetDefaultRate
	}
	sp := serve.Spec{
		Profiles:      f.Profiles,
		Size:          size,
		Replicas:      f.Replicas,
		RateIOPS:      rate,
		Horizon:       horizon,
		ControlPeriod: f.ControlPeriod.D(),
		Seed:          s.Seed,
		FaultSeed:     s.FaultSeed,
		FaultFrac:     f.FaultFrac,
	}
	for _, rs := range f.Arrivals {
		sp.Rates = append(sp.Rates, workload.RateStep{At: rs.At.D(), IOPS: rs.RateIOPS})
	}
	for _, ev := range f.Churn {
		sp.Churn = append(sp.Churn, serve.ChurnEvent{
			At:      ev.At.D(),
			Profile: ev.Profile,
			Add:     ev.Add,
			Remove:  ev.Remove,
			Warmup:  ev.Warmup.D(),
		})
	}
	if m := f.Meso; m != nil && m.Enable {
		sp.Meso = true
		sp.MesoGroupMin = m.GroupMin
		sp.MesoProbes = m.Probes
	}
	switch f.Budget {
	case "max":
		// nil schedule → serve's never-binding maximum-power default.
	case "":
		pd := float64(size)
		sp.Budget = []serve.BudgetStep{
			{At: 0, FleetW: fleetHighPD * pd},
			{At: horizon / 3, FleetW: fleetLowPD * pd},
			{At: 2 * horizon / 3, FleetW: fleetMidPD * pd},
		}
	default:
		b, err := serve.ParseSchedule(f.Budget, size)
		if err != nil {
			return serve.Spec{}, pathErr("fleet.budget", "%v", err)
		}
		sp.Budget = b
	}
	for i, ff := range f.Faults {
		wins := make([]fault.Window, len(ff.Windows))
		for j, w := range ff.Windows {
			fw, err := w.window()
			if err != nil {
				return serve.Spec{}, pathErr(fmt.Sprintf("fleet.faults[%d].windows[%d].kind", i, j), "%v", err)
			}
			wins[j] = fw
		}
		sp.Faults = append(sp.Faults, serve.DeviceFault{Device: ff.Device, Windows: wins})
	}
	return sp, nil
}
