package adaptive

import (
	"fmt"
	"sort"

	"wattio/internal/core"
	"wattio/internal/device"
	"wattio/internal/telemetry"
)

// BudgetController turns a fleet-wide power budget into concrete device
// settings using the power-throughput models the measurement study
// produces (§3.3, §4: "using SLOs and power budgets as inputs").
//
// Power states it applies directly; IO shapes it cannot force on
// applications, so the chosen assignment doubles as the IO-shaping
// advice the storage scheduler should enforce.
//
// A device can refuse its power-state command (a faulted controller, a
// browned-out link — §4.1's local control failures). The controller
// compensates: the refusing device is assumed stuck at its current
// state's worst-case draw, that draw is reserved out of the budget,
// and the remaining devices are re-planned under the tightened
// remainder so the fleet total still fits.
type BudgetController struct {
	fleet *core.Fleet
	devs  map[string]device.Device

	// Compensations counts Apply passes that had to re-plan around a
	// refusing device; LastStuck lists the devices the most recent
	// Apply found stuck (sorted by name).
	Compensations int
	LastStuck     []string

	cComp *telemetry.Counter
}

// NewBudgetController binds models to the live devices they describe.
// Every model must have a device and vice versa.
func NewBudgetController(fleet *core.Fleet, devs []device.Device) (*BudgetController, error) {
	byName := make(map[string]device.Device, len(devs))
	for _, d := range devs {
		byName[d.Name()] = d
	}
	for _, m := range fleet.Models() {
		if _, ok := byName[m.Device()]; !ok {
			return nil, fmt.Errorf("adaptive: model %s has no live device", m.Device())
		}
	}
	if len(byName) != len(fleet.Models()) {
		return nil, fmt.Errorf("adaptive: %d devices but %d models", len(byName), len(fleet.Models()))
	}
	return &BudgetController{
		fleet: fleet,
		devs:  byName,

		cComp: telemetry.Default().Counter("budget_compensations_total"),
	}, nil
}

// Apply selects the highest-throughput assignment under budgetW and
// applies each device's power state. Devices that refuse the command
// are treated as stuck at their current state: their worst-case draw
// is reserved from the budget and the rest of the fleet is re-planned
// under the remainder. It returns the final assignment — including the
// stuck devices at their assumed operating points — so the IO
// scheduler can apply the chunk/depth advice.
func (c *BudgetController) Apply(budgetW float64) (core.Assignment, error) {
	stuck := map[string]core.Sample{}
	c.LastStuck = nil
	// Each pass either succeeds or sticks at least one more device, so
	// len(devs) passes bound the loop.
	for pass := 0; pass <= len(c.devs); pass++ {
		var reservedW float64
		var free []*core.Model
		for _, m := range c.fleet.Models() {
			if s, isStuck := stuck[m.Device()]; isStuck {
				reservedW += s.PowerW
			} else {
				free = append(free, m)
			}
		}

		a := core.Assignment{Configs: map[string]core.Sample{}}
		if len(free) > 0 {
			// With nothing stuck the free set is the whole fleet: query
			// the long-lived Fleet so its frontier serves every re-plan.
			sub := c.fleet
			if len(stuck) > 0 {
				var err error
				if sub, err = core.NewFleet(free...); err != nil {
					return core.Assignment{}, err
				}
			}
			got, ok := sub.BestUnderPower(budgetW - reservedW)
			if !ok {
				return core.Assignment{}, fmt.Errorf(
					"adaptive: no fleet assignment fits %.2f W (%.2f W reserved for %d stuck devices)",
					budgetW, reservedW, len(stuck))
			}
			a = got
		}

		// Apply in sorted order so side effects are deterministic.
		names := make([]string, 0, len(a.Configs))
		for name := range a.Configs {
			names = append(names, name)
		}
		sort.Strings(names)
		failed := false
		for _, name := range names {
			dev := c.devs[name]
			if len(dev.PowerStates()) == 0 {
				continue // no host-selectable states (SATA SSD, HDD)
			}
			if err := dev.SetPowerState(a.Configs[name].PowerState); err != nil {
				stuck[name] = c.stuckEstimate(name)
				failed = true
			}
		}
		if failed {
			c.Compensations++
			c.cComp.Inc()
			continue
		}

		// Add the stuck devices in name order, so the totals' float sums
		// do not depend on map iteration order.
		for name := range stuck {
			c.LastStuck = append(c.LastStuck, name)
		}
		sort.Strings(c.LastStuck)
		for _, name := range c.LastStuck {
			s := stuck[name]
			a.Configs[name] = s
			a.TotalPowerW += s.PowerW
			a.TotalMBps += s.ThroughputMBps
		}
		return a, nil
	}
	return core.Assignment{}, fmt.Errorf("adaptive: budget apply did not converge over %d devices", len(c.devs))
}

// stuckEstimate returns the worst-case operating point of a device
// refusing to change state: the highest-power model sample at the
// power state it is stuck in, falling back to the model's overall
// highest-power sample if that state was never measured.
func (c *BudgetController) stuckEstimate(name string) core.Sample {
	ps := c.devs[name].PowerStateIndex()
	var model *core.Model
	for _, m := range c.fleet.Models() {
		if m.Device() == name {
			model = m
			break
		}
	}
	var best core.Sample
	found := false
	for _, s := range model.Samples() {
		if s.PowerState == ps && (!found || s.PowerW > best.PowerW) {
			best, found = s, true
		}
	}
	if found {
		return best
	}
	for _, s := range model.Samples() {
		if !found || s.PowerW > best.PowerW {
			best, found = s, true
		}
	}
	return best
}
