// Package power models how a storage device's electrical draw is composed
// and constrained: a Meter sums named component contributions (controller,
// interface, dies, spindle, …) into the instantaneous power a shunt
// resistor would see, and a Regulator enforces an NVMe-style cap on
// average power over a rolling window by making operations wait for
// energy credits.
package power

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Component identifies one electrical contributor inside a device.
type Component int

// MicroW returns w watts as a draw in integer microwatts, rounded to the
// nearest. Devices round each configured draw once, at construction, and
// hand the meter only integers. It panics on a negative, non-finite or
// out-of-range w: a draw is never negative, and config validation
// refuses every field that would make one.
func MicroW(w float64) int64 { return perW(w, 1e6) }

// NanoW is MicroW in nanowatts, for a per-unit draw that is multiplied
// by a count before it is rounded to the µW a meter takes.
func NanoW(w float64) int64 { return perW(w, 1e9) }

func perW(w, scale float64) int64 {
	if !(w >= 0 && w*scale < 0x1p63) {
		panic(fmt.Sprintf("power: draw %v W is negative or out of range", w))
	}
	return int64(math.Round(w * scale))
}

// Meter tracks the instantaneous power of a device as the sum of its
// component draws, and the energy each component has consumed over
// virtual time.
//
// Devices call Set whenever a component changes state (a die starts a
// program op, the interface drops to SLUMBER, …). The measurement rig
// reads Instant; experiment reports read Energy.
//
// The ledger is exact: draws are integer µW and energies integer µW·ns,
// so no result depends on the order of updates or reads, and Energy is
// exactly the sum of the components' energies. Joules are computed
// only on read.
type Meter struct {
	comps []comp
	names []string      // the device class's shared table; never written
	total int64         // µW, the sum of the components' draws
	last  time.Duration // latest instant the meter was set or read at
}

// comp is one component's record. Its energy advances only when the
// component changes, keeping Set O(1); reads add the draw since last.
type comp struct {
	uw   int64         // current draw, µW
	e    uwns          // energy up to last
	last time.Duration // time e was last advanced to
}

// uwns is an energy in µW·ns (1e-15 J), a 128-bit unsigned integer:
// 15 W for 600 s is already 9e18 µW·ns, the int64 limit.
type uwns struct{ hi, lo uint64 }

// addMul adds uw µW drawn for dt.
func (a *uwns) addMul(uw int64, dt time.Duration) {
	hi, lo := bits.Mul64(uint64(uw), uint64(dt))
	var c uint64
	a.lo, c = bits.Add64(a.lo, lo, 0)
	a.hi += hi + c
}

func (a *uwns) add(b uwns) {
	var c uint64
	a.lo, c = bits.Add64(a.lo, b.lo, 0)
	a.hi += b.hi + c
}

func (a uwns) joules() float64 {
	return (float64(a.hi)*0x1p64 + float64(a.lo)) / 1e15
}

// at returns the component's energy up to now.
func (p *comp) at(now time.Duration) uwns {
	e := p.e
	if p.uw != 0 {
		e.addMul(p.uw, now-p.last)
	}
	return e
}

// NewMeter returns a meter with the clock at t0 and one component per
// entry of names, each drawing nothing until Set; the handle of
// names[i] is Component(i). The meter keeps names itself, not a copy,
// so a device class passes one table to every meter it builds, and the
// table must not change afterwards.
func NewMeter(t0 time.Duration, names []string) *Meter {
	return &Meter{comps: make([]comp, len(names)), names: names, last: t0}
}

// Set updates component c to draw uw µW (see MicroW) as of virtual time
// now: one multiply-add books the old draw up to now, and the total moves
// by the difference.
func (m *Meter) Set(c Component, uw int64, now time.Duration) {
	if now < m.last || uw < 0 {
		m.refuse(now, uw)
	}
	m.last = now
	p := &m.comps[c]
	// Components spend much of their life at zero draw (idle dies), and
	// co-timed updates are common; both add nothing.
	if p.uw != 0 && now != p.last {
		p.e.addMul(p.uw, now-p.last)
	}
	p.last = now
	m.total += uw - p.uw
	p.uw = uw
}

// refuse panics on an update that would break the ledger: time running
// backward or a negative draw.
func (m *Meter) refuse(now time.Duration, uw int64) {
	if now < m.last {
		panic(fmt.Sprintf("power: meter time went backward: %v < %v", now, m.last))
	}
	panic(fmt.Sprintf("power: draw %d µW negative", uw))
}

// advance moves the meter's clock to now for a read.
func (m *Meter) advance(now time.Duration) {
	if now < m.last {
		m.refuse(now, 0)
	}
	m.last = now
}

// Instant returns the instantaneous total power in watts at time now.
func (m *Meter) Instant(now time.Duration) float64 {
	m.advance(now)
	return float64(m.total) / 1e6
}

// Energy returns the total energy in joules consumed up to now: the
// exact sum of the components' energies, rounded once to joules.
func (m *Meter) Energy(now time.Duration) float64 {
	return m.energy(now).joules()
}

func (m *Meter) energy(now time.Duration) uwns {
	m.advance(now)
	var sum uwns
	for i := range m.comps {
		sum.add(m.comps[i].at(now))
	}
	return sum
}

// EnergyBreakdown returns the per-component energies in joules consumed
// up to now, index-aligned with Names. The components partition the
// meter's total exactly in µW·ns; in joules each entry and Energy are
// rounded once apiece.
func (m *Meter) EnergyBreakdown(now time.Duration) []float64 {
	m.advance(now)
	out := make([]float64, len(m.comps))
	for i := range m.comps {
		out[i] = m.comps[i].at(now).joules()
	}
	return out
}

// Names returns the component names, index-aligned with
// EnergyBreakdown. It is the table given to NewMeter, which callers
// must not modify.
func (m *Meter) Names() []string { return m.names }
