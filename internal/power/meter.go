// Package power models how a storage device's electrical draw is composed
// and constrained: a Meter sums named component contributions (controller,
// interface, dies, spindle, …) into the instantaneous power a shunt
// resistor would see, and a Regulator enforces an NVMe-style cap on
// average power over a rolling window by making operations wait for
// energy credits.
package power

import (
	"fmt"
	"time"
)

// Component identifies one electrical contributor inside a device.
type Component int

// Meter tracks the instantaneous power of a device as the sum of its
// component draws, and integrates total energy over virtual time.
//
// Devices call Set whenever a component changes state (a die starts a
// program op, the interface drops to SLUMBER, …). The measurement rig
// reads Instant; experiment reports read Energy.
type Meter struct {
	comps  []comp
	names  []string
	total  float64
	energy float64 // joules accumulated up to last
	last   time.Duration
}

// comp is one component's record. Its energy is integrated lazily: the
// accumulator advances only when the component changes (or on an
// explicit EnergyBreakdown read), keeping Set O(1). The invariant
// sum(e) + pending == energy is what the telemetry energy-conservation
// probe checks.
type comp struct {
	w    float64       // current draw, watts
	e    float64       // joules accumulated up to last
	last time.Duration // time e was last advanced to
}

// NewMeter returns an empty meter with the clock at t0, sized for n
// components. Adding more than n still works, at the cost of growing.
func NewMeter(t0 time.Duration, n int) *Meter {
	return &Meter{comps: make([]comp, 0, n), names: make([]string, 0, n), last: t0}
}

// AddComponent registers a named component with an initial draw of w
// watts and returns its handle.
func (m *Meter) AddComponent(name string, w float64) Component {
	m.names = append(m.names, name)
	m.comps = append(m.comps, comp{w: w, last: m.last})
	m.total += w
	return Component(len(m.comps) - 1)
}

// Set updates component c to draw w watts as of virtual time now.
// Energy is integrated at the previous rate up to now first, so ordering
// of co-timed updates does not change the integral.
func (m *Meter) Set(c Component, w float64, now time.Duration) {
	m.SetSteps(c, w, w-m.comps[c].w, 1, now)
}

// SetSteps updates component c to draw w watts as of virtual time now,
// moving the meter's total by k separate adds of step. A component that
// stands for k units changing at once (k dies starting a program, each
// adding step watts) thus leaves the total exactly where k Set calls on
// k per-unit components would have left it.
func (m *Meter) SetSteps(c Component, w, step float64, k int, now time.Duration) {
	m.integrate(now)
	p := &m.comps[c]
	// Components spend much of their life at zero draw (idle dies), and
	// co-timed updates are common; skip the integration arithmetic then.
	if dt := now - p.last; dt != 0 && p.w != 0 {
		p.e += p.w * dt.Seconds()
	}
	p.last = now
	for ; k > 0; k-- {
		m.total += step
	}
	p.w = w
}

// Get returns the current draw of component c in watts.
func (m *Meter) Get(c Component) float64 { return m.comps[c].w }

// Name returns the registered name of component c.
func (m *Meter) Name(c Component) string { return m.names[c] }

// Instant returns the instantaneous total power in watts at time now,
// integrating energy up to now as a side effect.
func (m *Meter) Instant(now time.Duration) float64 {
	m.integrate(now)
	return m.total
}

// Energy returns the total energy in joules consumed up to now.
func (m *Meter) Energy(now time.Duration) float64 {
	m.integrate(now)
	return m.energy
}

func (m *Meter) integrate(now time.Duration) {
	if now == m.last {
		// Co-timed updates add total*0: skipping them is exact, since
		// energy starts at +0 and so is never -0.
		return
	}
	if now < m.last {
		panic(fmt.Sprintf("power: meter time went backward: %v < %v", now, m.last))
	}
	m.energy += m.total * (now - m.last).Seconds()
	m.last = now
}

// Breakdown returns a copy of the per-component draws, index-aligned with
// the handles returned by AddComponent.
func (m *Meter) Breakdown() []float64 {
	out := make([]float64, len(m.comps))
	for i, p := range m.comps {
		out[i] = p.w
	}
	return out
}

// EnergyBreakdown returns the per-component energies in joules consumed
// up to now, index-aligned with the handles returned by AddComponent.
// The components partition the meter's total: sum(EnergyBreakdown) ==
// Energy up to floating-point error — the invariant the telemetry
// energy-conservation probe relies on.
func (m *Meter) EnergyBreakdown(now time.Duration) []float64 {
	m.integrate(now)
	out := make([]float64, len(m.comps))
	for i := range m.comps {
		p := &m.comps[i]
		p.e += p.w * (now - p.last).Seconds()
		p.last = now
		out[i] = p.e
	}
	return out
}

// Names returns the registered component names, index-aligned with
// Breakdown and EnergyBreakdown.
func (m *Meter) Names() []string {
	out := make([]string, len(m.names))
	copy(out, m.names)
	return out
}
