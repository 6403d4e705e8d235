// Package invariant provides runtime probes that check physical
// invariants of a running simulation from its public surfaces:
//
//   - energy conservation: the time integral of InstantPower matches the
//     device's accounted energy, and the per-component breakdown
//     partitions the total;
//   - power-cap compliance: average power over any sliding window never
//     exceeds a budget (the NVMe power-state semantics).
//
// Clock monotonicity needs no probe: sim.Engine panics before its clock
// would run backward.
//
// Probes attach to an engine, sample while the simulation runs, and are
// interrogated with Check once the run is over. They live outside the
// device models on purpose: a probe only sees what an external observer
// could, so a bookkeeping bug inside a model cannot hide from it.
//
// This package sits beside telemetry but imports sim (the reverse of
// telemetry itself, which sim imports), so it cannot be folded into
// telemetry without a cycle.
package invariant

import (
	"fmt"
	"time"

	"wattio/internal/sim"
)

// Source is the minimal surface a probe clamps onto.
type Source interface {
	InstantPower() float64
}

// EnergyAccounting is the surface the energy-conservation probe needs:
// instantaneous power plus the model's own cumulative accounting.
// ssd.SSD and hdd.HDD implement it.
type EnergyAccounting interface {
	Source
	EnergyJ() float64
	EnergyComponents() (names []string, joules []float64)
}

// EnergyMetered is the surface the cap probe needs.
type EnergyMetered interface {
	EnergyJ() float64
}

// EnergyProbe integrates InstantPower by periodic sampling and compares
// the integral against the device's accounted energy over the probed
// interval. Power in the simulator is piecewise constant between
// events, so a left-Riemann sum converges as the sample period shrinks;
// Check takes a relative tolerance to absorb the residual aliasing.
type EnergyProbe struct {
	eng *sim.Engine
	src EnergyAccounting

	startT time.Duration
	startE float64
	startC []float64

	lastT    time.Duration
	lastW    float64
	integral float64

	running bool
	tick    *sim.Timer
}

// AttachEnergy starts an energy-conservation probe sampling src every
// sampleEvery of virtual time. Call Stop when the run is over, then
// Check.
func AttachEnergy(eng *sim.Engine, src EnergyAccounting, sampleEvery time.Duration) *EnergyProbe {
	if sampleEvery <= 0 {
		panic("invariant: sample period must be positive")
	}
	_, comps := src.EnergyComponents()
	p := &EnergyProbe{
		eng:    eng,
		src:    src,
		startT: eng.Now(),
		startE: src.EnergyJ(),
		startC: comps,
		lastT:  eng.Now(),
		lastW:  src.InstantPower(),

		running: true,
	}
	p.tick = eng.Periodic(sampleEvery, p.observe)
	return p
}

func (p *EnergyProbe) observe() {
	now := p.eng.Now()
	p.integral += p.lastW * (now - p.lastT).Seconds()
	p.lastT = now
	p.lastW = p.src.InstantPower()
}

// Stop halts sampling and closes the integral at the current virtual
// time. The probe must be stopped before Check.
func (p *EnergyProbe) Stop() {
	if !p.running {
		return
	}
	p.running = false
	if p.tick != nil {
		p.tick.Stop()
	}
	now := p.eng.Now()
	p.integral += p.lastW * (now - p.lastT).Seconds()
	p.lastT = now
}

// Check verifies energy conservation over the probed interval:
// the device's accounted energy matches the sampled power integral
// within relTol, and the per-component energies partition the total
// exactly (to float rounding). It returns nil if both hold.
func (p *EnergyProbe) Check(relTol float64) error {
	if p.running {
		return fmt.Errorf("invariant: Check on a running energy probe")
	}
	accounted := p.src.EnergyJ() - p.startE
	names, comps := p.src.EnergyComponents()
	var compSum float64
	for i, j := range comps {
		base := 0.0
		if i < len(p.startC) {
			base = p.startC[i]
		}
		if j < base {
			return fmt.Errorf("invariant: component %q energy shrank: %v -> %v J", names[i], base, j)
		}
		compSum += j - base
	}
	if diff, scale := relDiff(compSum, accounted); diff > 1e-6*scale {
		return fmt.Errorf("invariant: component energies do not partition total: sum %v J, total %v J", compSum, accounted)
	}
	if diff, scale := relDiff(p.integral, accounted); diff > relTol*scale {
		return fmt.Errorf("invariant: energy not conserved: integral of InstantPower %v J, accounted %v J (tol %v)",
			p.integral, accounted, relTol)
	}
	return nil
}

// CapProbe checks the NVMe power-state constraint: average power over
// any sliding window of the given length never exceeds capW. It tracks
// cumulative energy checkpoints and evaluates every window ending at a
// sample instant; windows that extend before the probe's start count
// zero power there, matching a device that did not exist yet.
//
// Using the checkpoint at or before the window's left edge slightly
// overestimates each window's energy (by at most one sample period of
// draw), so the probe errs on the strict side.
type CapProbe struct {
	eng    *sim.Engine
	src    EnergyMetered
	capW   float64
	window time.Duration

	startT time.Duration
	startE float64
	// ts and es hold the checkpoints from the newest one at or before
	// the last window's left edge (index left) onward: no later window
	// reads an older one. observe drops the older ones once they are
	// half the slices, so the probe keeps O(window/sampleEvery) of them
	// however long the run.
	ts   []time.Duration
	es   []float64
	left int

	worstW  float64
	worstAt time.Duration

	running bool
	tick    *sim.Timer
}

// AttachCap starts a cap probe on src with budget capW over the given
// sliding window, sampling every sampleEvery of virtual time.
func AttachCap(eng *sim.Engine, src EnergyMetered, capW float64, window, sampleEvery time.Duration) *CapProbe {
	switch {
	case capW <= 0:
		panic("invariant: cap must be positive")
	case window <= 0:
		panic("invariant: cap window must be positive")
	case sampleEvery <= 0:
		panic("invariant: sample period must be positive")
	}
	p := &CapProbe{
		eng:    eng,
		src:    src,
		capW:   capW,
		window: window,
		startT: eng.Now(),
		startE: src.EnergyJ(),

		running: true,
	}
	p.ts = append(p.ts, p.startT)
	p.es = append(p.es, 0)
	p.tick = eng.Periodic(sampleEvery, p.observe)
	return p
}

func (p *CapProbe) observe() {
	now := p.eng.Now()
	e := p.src.EnergyJ() - p.startE
	p.ts = append(p.ts, now)
	p.es = append(p.es, e)
	edge := now - p.window
	for p.left+1 < len(p.ts) && p.ts[p.left+1] <= edge {
		p.left++
	}
	if 2*p.left >= len(p.ts) {
		p.ts = p.ts[:copy(p.ts, p.ts[p.left:])]
		p.es = p.es[:copy(p.es, p.es[p.left:])]
		p.left = 0
	}
	avg := (e - p.es[p.left]) / p.window.Seconds()
	if avg > p.worstW {
		p.worstW = avg
		p.worstAt = now
	}
}

// Stop halts sampling after taking one final observation.
func (p *CapProbe) Stop() {
	if !p.running {
		return
	}
	p.running = false
	if p.tick != nil {
		p.tick.Stop()
	}
	p.observe()
}

// WorstWindowW returns the highest window-average power observed.
func (p *CapProbe) WorstWindowW() float64 { return p.worstW }

// Check verifies no window exceeded the cap by more than relTol. The
// tolerance absorbs draws the device does not route through its
// regulator — activity ripple, interface activation, state-transition
// energy — which real caps also exclude from throttling decisions.
func (p *CapProbe) Check(relTol float64) error {
	if p.running {
		return fmt.Errorf("invariant: Check on a running cap probe")
	}
	if p.worstW > p.capW*(1+relTol) {
		return fmt.Errorf("invariant: cap exceeded: worst %v-window average %.3f W at t=%v, cap %.3f W (tol %v)",
			p.window, p.worstW, p.worstAt, p.capW, relTol)
	}
	return nil
}
