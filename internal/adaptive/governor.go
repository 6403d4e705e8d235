package adaptive

import (
	"fmt"
	"time"

	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/telemetry"
)

// Governor is the model-free counterpart to BudgetController: a
// closed-loop feedback controller that periodically measures a device's
// average power and steps its NVMe power state down when over budget
// and back up when there is headroom. Operators run this where no
// power-throughput model has been built yet, or as a safety net under
// the model-based plan — §4.1's "local failures to control power" are
// exactly what the feedback loop catches.
//
// Power-state commands can fail (a faulted or browned-out device, see
// internal/fault); the governor retries a failed transition with
// capped exponential backoff until it applies or the next control
// period supersedes it with a fresh decision.
type Governor struct {
	eng *sim.Engine
	dev device.Device
	// states is the device's power-state table, read once: the
	// descriptors are fixed for a device's life, and PowerStates hands
	// out a fresh copy per call.
	states []device.PowerState

	budgetW float64
	period  time.Duration

	running bool
	tick    *sim.Timer

	retry        *sim.Timer
	retryTarget  int
	retryBackoff time.Duration

	lastE float64
	lastT time.Duration

	// Steps counts power-state changes; Overs counts measurement
	// periods that ended over budget; Retries counts retry attempts
	// after failed power-state commands; Failures counts failed
	// commands (first attempts and retries).
	Steps, Overs, Retries, Failures int

	cRetries  *telemetry.Counter
	cFailures *telemetry.Counter
}

// headroomFrac is the fraction of budget that must be free before the
// governor steps back up (hysteresis against flapping).
const headroomFrac = 0.15

// retryBase is the backoff before the first retry of a failed
// power-state command; it doubles on each consecutive failure up to
// one control period.
func (g *Governor) retryBase() time.Duration { return g.period / 8 }

// NewGovernor builds a governor over a device with host-selectable
// power states.
func NewGovernor(eng *sim.Engine, dev device.Device, budgetW float64, period time.Duration) (*Governor, error) {
	states := dev.PowerStates()
	if len(states) < 2 {
		return nil, fmt.Errorf("adaptive: %s has no power states to govern", dev.Name())
	}
	if budgetW <= 0 {
		return nil, fmt.Errorf("adaptive: budget must be positive")
	}
	if period <= 0 {
		return nil, fmt.Errorf("adaptive: period must be positive")
	}
	reg := eng.Metrics()
	return &Governor{
		eng: eng, dev: dev, states: states,
		budgetW: budgetW, period: period,

		cRetries:  reg.Counter("governor_retries_total"),
		cFailures: reg.Counter("governor_cmd_failures_total"),
	}, nil
}

// SetBudget retargets the governor; takes effect at the next period.
// Like the constructor it rejects non-positive budgets, which would
// pin the device at its deepest state forever.
func (g *Governor) SetBudget(w float64) error {
	if w <= 0 {
		return fmt.Errorf("adaptive: budget must be positive, got %v", w)
	}
	g.budgetW = w
	return nil
}

// Budget returns the current target.
func (g *Governor) Budget() float64 { return g.budgetW }

// Start begins the control loop.
func (g *Governor) Start() {
	if g.running {
		return
	}
	g.running = true
	g.lastE = g.dev.EnergyJ()
	g.lastT = g.eng.Now()
	// One periodic timer serves the whole loop; the engine re-sifts it
	// in place after each control step instead of alloc+push per period.
	if g.tick == nil {
		g.tick = g.eng.Periodic(g.period, g.onTick)
	} else {
		g.tick.RescheduleAfter(g.period)
	}
}

// Stop halts the control loop, leaving the device in its current state.
func (g *Governor) Stop() {
	g.running = false
	if g.tick != nil {
		g.tick.Stop()
	}
	g.stopRetry()
}

func (g *Governor) onTick() {
	if !g.running {
		return
	}
	g.control()
}

// control runs one feedback step on the trailing period's average power.
func (g *Governor) control() {
	now := g.eng.Now()
	elapsed := now - g.lastT
	if elapsed <= 0 {
		// A zero-length period (Start and the first tick co-timed, or a
		// re-entrant call) has no average power; dividing would poison
		// the decision with NaN/Inf. Skip and wait for real elapsed time.
		return
	}
	e := g.dev.EnergyJ()
	avgW := (e - g.lastE) / elapsed.Seconds()
	g.lastE, g.lastT = e, now

	// A fresh measurement supersedes any pending retry: the decision
	// below is based on newer data.
	g.stopRetry()

	ps := g.dev.PowerStateIndex()
	switch {
	case avgW > g.budgetW:
		g.Overs++
		if ps < len(g.states)-1 {
			g.apply(ps + 1)
		}
	case avgW < g.budgetW*(1-headroomFrac) && ps > 0:
		// Only step up if the next state's cap also fits the budget;
		// otherwise stepping up guarantees re-violation.
		upCap := g.states[ps-1].MaxPowerW
		if upCap == 0 || upCap <= g.budgetW {
			g.apply(ps - 1)
		}
	}
}

// apply attempts a power-state transition, arming the retry loop on
// failure.
func (g *Governor) apply(target int) {
	if err := g.dev.SetPowerState(target); err != nil {
		g.Failures++
		g.cFailures.Inc()
		g.retryBackoff = g.retryBase()
		g.scheduleRetry(target)
		return
	}
	g.Steps++
	g.retryBackoff = 0
}

func (g *Governor) scheduleRetry(target int) {
	d := g.retryBackoff
	if d <= 0 {
		d = g.retryBase()
	}
	if d <= 0 {
		d = time.Millisecond
	}
	g.retryTarget = target
	if g.retry == nil {
		g.retry = g.eng.After(d, g.onRetry)
	} else {
		g.retry.RescheduleAfter(d)
	}
}

func (g *Governor) onRetry() {
	if !g.running {
		return
	}
	g.Retries++
	g.cRetries.Inc()
	if err := g.dev.SetPowerState(g.retryTarget); err != nil {
		g.Failures++
		g.cFailures.Inc()
		g.retryBackoff *= 2
		if g.retryBackoff > g.period {
			g.retryBackoff = g.period
		}
		g.scheduleRetry(g.retryTarget)
		return
	}
	g.Steps++
	g.retryBackoff = 0
}

func (g *Governor) stopRetry() {
	if g.retry != nil {
		g.retry.Stop()
	}
}
