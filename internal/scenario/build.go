package scenario

import (
	"fmt"
	"time"

	"wattio/internal/calib"
	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/fault"
	"wattio/internal/serve"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

// Fleet-experiment defaults the builders fill into zero fleet fields.
// The stepped budget walks the fleet down to its low-power plan and
// partway back up, so one run shows both a curtailment (load shed,
// tail inflation) and a recovery.
const (
	fleetDefaultSize = 64
	fleetDefaultRate = 7000 // IOPS per active device: above ps2's saturated rate, below ps0's
	fleetHighPD      = 14.6 // W per device: everything at ps0
	fleetLowPD       = 10.5 // forces most of the fleet to ps2
	fleetMidPD       = 12.0 // recovery: ps1 becomes affordable
)

// ServeSpec materializes the spec's fleet section (nil = all defaults)
// into the serving engine's spec, with horizon as the virtual serving
// time. Budget semantics: "" takes the stepped curtail-and-recover
// default, "max" a never-binding budget, anything else a
// serve.ParseSchedule schedule scaled by the resolved fleet size. An
// enabled calib stanza fits a model per profile (memoized per class and
// options) into the spec's Fitted map.
func (s *Spec) ServeSpec(horizon time.Duration) (serve.Spec, error) {
	sp, err := s.serveSpec(horizon)
	if err != nil {
		return serve.Spec{}, err
	}
	if f := s.Fleet; f != nil && f.Calib != nil && f.Calib.Enable {
		c := f.Calib
		profiles := sp.Profiles
		if len(profiles) == 0 {
			profiles = []string{"SSD2"}
		}
		opt := calib.Options{
			PointRuntime: c.PointRuntime.D(),
			Warmup:       c.Warmup.D(),
			Seed:         c.Seed,
			Folds:        c.Folds,
		}
		sp.Fitted = make(map[string]*calib.Model, len(profiles))
		for _, p := range profiles {
			fit, err := calib.FitClass(p, opt)
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
	arr, err := arrivalKind(f.Arrival, workload.OpenPoisson)
	if err != nil {
		return serve.Spec{}, pathErr("fleet.arrival", "%v", err)
	}
	sp := serve.Spec{
		Profiles:        f.Profiles,
		Size:            size,
		Shards:          f.Shards,
		Replicas:        f.Replicas,
		Active:          f.Active,
		Read:            f.Read,
		Seq:             f.Seq,
		ChunkBytes:      f.ChunkBytes,
		Depth:           f.Depth,
		Batch:           f.Batch,
		QueueCap:        f.QueueCap,
		RateIOPS:        rate,
		Arrival:         arr,
		Horizon:         horizon,
		ControlPeriod:   f.ControlPeriod.D(),
		CapTolFrac:      f.CapTolFrac,
		Seed:            s.Seed,
		FaultSeed:       s.FaultSeed,
		FaultFrac:       f.FaultFrac,
		CheckInvariants: !f.SkipInvariants,
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
			fw, err := w.Window()
			if err != nil {
				return serve.Spec{}, pathErr(fmt.Sprintf("fleet.faults[%d].windows[%d].kind", i, j), "%v", err)
			}
			wins[j] = fw
		}
		sp.Faults = append(sp.Faults, serve.DeviceFault{Device: ff.Device, Windows: wins})
	}
	return sp, nil
}

// BuiltDevice is one materialized scenario device: its instance name
// and the (possibly fault-wrapped) device attached to the engine.
type BuiltDevice struct {
	Name string
	Dev  device.Device
}

// BuildDevices materializes the spec's device list onto an engine.
// Each instance draws its device stream from rng and its fault
// injection stream from frng, both labeled by the instance name, so
// adding or removing one device never perturbs another's draws.
func (s *Spec) BuildDevices(eng *sim.Engine, rng, frng *sim.RNG) ([]BuiltDevice, error) {
	var out []BuiltDevice
	for di, ds := range s.Devices {
		count := ds.Count
		if count == 0 {
			count = 1
		}
		base := ds.Name
		if base == "" {
			base = ds.Profile
		}
		var wins []fault.Window
		for j, w := range ds.Faults {
			fw, err := w.Window()
			if err != nil {
				return nil, pathErr(fmt.Sprintf("devices[%d].faults[%d].kind", di, j), "%v", err)
			}
			wins = append(wins, fw)
		}
		for i := 0; i < count; i++ {
			name := base
			if count > 1 {
				name = fmt.Sprintf("%s%d", base, i)
			}
			d, ok := catalog.NewNamed(ds.Profile, name, eng, rng.Stream(name))
			if !ok {
				return nil, pathErr(fmt.Sprintf("devices[%d].profile", di), "unknown profile %q", ds.Profile)
			}
			dev := device.Device(d)
			if len(wins) > 0 {
				fd, err := fault.New(dev, eng, frng.Stream(name), fault.Profile{Windows: wins})
				if err != nil {
					return nil, pathErr(fmt.Sprintf("devices[%d].faults", di), "%v", err)
				}
				dev = fd
			}
			out = append(out, BuiltDevice{Name: name, Dev: dev})
		}
	}
	return out, nil
}

// Job materializes the workload section into a workload.Job; runtime
// and totalBytes are the scale bounds used when the spec leaves its
// own bounds zero.
func (w *WorkloadSpec) Job(runtime time.Duration, totalBytes int64) (workload.Job, error) {
	op := device.OpWrite
	if w.Op == "read" {
		op = device.OpRead
	}
	pat := workload.Seq
	if w.Pattern == "rand" {
		pat = workload.Rand
	}
	arr, err := arrivalKind(w.Arrival, workload.Closed)
	if err != nil {
		return workload.Job{}, pathErr("workload.arrival", "%v", err)
	}
	j := workload.Job{
		Op:         op,
		Pattern:    pat,
		BS:         w.ChunkBytes,
		Depth:      w.Depth,
		Arrival:    arr,
		RateIOPS:   w.RateIOPS,
		Runtime:    w.Runtime.D(),
		TotalBytes: w.TotalBytes,
	}
	if j.Runtime == 0 {
		j.Runtime = runtime
	}
	if j.TotalBytes == 0 {
		j.TotalBytes = totalBytes
	}
	return j, nil
}

// defaultModelProfiles is the paper's modeled-device set, in its
// published rendering order.
var defaultModelProfiles = []string{"SSD1", "SSD2", "SSD3", "HDD"}

// ModelProfiles returns the catalog profiles the modeling experiments
// (Figure 10, headline) should sweep: the spec's device profiles in
// declaration order with duplicates removed, or the paper's default
// set when the spec is nil or lists no devices.
func (s *Spec) ModelProfiles() []string {
	if s == nil || len(s.Devices) == 0 {
		return append([]string(nil), defaultModelProfiles...)
	}
	seen := map[string]bool{}
	var out []string
	for _, d := range s.Devices {
		if !seen[d.Profile] {
			seen[d.Profile] = true
			out = append(out, d.Profile)
		}
	}
	return out
}
