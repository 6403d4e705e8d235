// Package fault injects deterministic failures into the power-control
// plane. The paper's §4.1 names "local failures of the storage system
// to control power" as the reason power-adaptive deployments need a
// feedback safety net; this package makes those failures reproducible
// so the control plane (governor, redirector, budget controller,
// rollout manager) can be tested against devices that do NOT obey
// every command.
//
// A fault.Device wraps any device.Device and injects faults from a
// Profile: scripted windows on the simulation clock (dropout, command
// failure, transient IO errors), the IO errors drawn from a
// per-experiment RNG stream. Injection is deterministic — the same
// (profile, fault seed) pair always injects the same faults at the
// same virtual times — so a faulted run is as reproducible as a clean
// one.
//
// The wrapper never touches the device model underneath: power draw
// and energy accounting remain the inner device's, and with an empty
// Profile the wrapper is behavior-transparent (same completions at the
// same virtual times, same power).
package fault

import (
	"errors"
	"fmt"
	"time"

	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/telemetry"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// IOError makes each IO inside the window fail transiently with
	// probability Prob per attempt; the wrapper models the host
	// retries, each costing RetryPenalty of extra latency. The Device
	// interface has no error channel on the data path — like the
	// kernel block layer, transient errors surface as latency.
	IOError Kind = iota
	// PowerCmdFail makes SetPowerState return ErrCmdFail inside the
	// window, leaving the state unchanged.
	PowerCmdFail
	// Dropout takes the device offline for the window (brownout /
	// hot-unplug): new IO is held and released when the window ends,
	// control commands fail with ErrUnavailable, and Healthy reports
	// false. IO already in flight completes normally.
	Dropout

	numKinds
)

// String returns the fault class name.
func (k Kind) String() string {
	switch k {
	case IOError:
		return "ioerror"
	case PowerCmdFail:
		return "cmdfail"
	case Dropout:
		return "dropout"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Injected faults surface as errors wrapping ErrInjected, so callers
// can distinguish an injected failure from a device-model error with
// errors.Is.
var (
	// ErrInjected is the root of every injected error.
	ErrInjected = errors.New("fault: injected failure")
	// ErrCmdFail is returned by SetPowerState in a PowerCmdFail window.
	ErrCmdFail = fmt.Errorf("%w: power command failed", ErrInjected)
	// ErrUnavailable is returned by control commands during a Dropout
	// window.
	ErrUnavailable = fmt.Errorf("%w: device unavailable", ErrInjected)
)

// Window is one scripted fault episode on the simulation clock:
// [Start, Start+Dur) in virtual time.
type Window struct {
	Kind  Kind
	Start time.Duration
	Dur   time.Duration

	// Prob is the per-attempt transient failure probability for
	// IOError windows, in [0, 1].
	Prob float64
}

// contains reports whether t falls inside the window.
func (w Window) contains(t time.Duration) bool {
	return t >= w.Start && t < w.Start+w.Dur
}

// End returns the window's end time.
func (w Window) End() time.Duration { return w.Start + w.Dur }

// Profile is a full fault schedule for one device.
type Profile struct {
	Windows []Window

	// RetryPenalty is the extra latency one transient-IO-error retry
	// costs (default 500 µs).
	RetryPenalty time.Duration
	// MaxRetries bounds retries per IO (default 3); an IO never fails
	// permanently, matching a data path without an error channel.
	MaxRetries int
}

// Validate checks the profile for nonsensical windows.
func (p Profile) Validate() error {
	for i, w := range p.Windows {
		switch {
		case w.Kind < 0 || w.Kind >= numKinds:
			return fmt.Errorf("fault: window %d has unknown kind %d", i, int(w.Kind))
		case w.Start < 0 || w.Dur <= 0:
			return fmt.Errorf("fault: window %d (%v) has invalid span [%v, +%v)", i, w.Kind, w.Start, w.Dur)
		case w.Kind == IOError && (w.Prob < 0 || w.Prob > 1):
			return fmt.Errorf("fault: window %d probability %v out of [0,1]", i, w.Prob)
		}
	}
	if p.RetryPenalty < 0 {
		return fmt.Errorf("fault: negative retry penalty %v", p.RetryPenalty)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("fault: negative max retries %d", p.MaxRetries)
	}
	return nil
}

// Device wraps an inner device.Device and injects the profile's
// faults. It implements device.Device and device.HealthReporter; all
// power and energy accounting passes through to the inner device
// untouched, so energy-conservation probes hold across fault windows.
type Device struct {
	inner device.Device
	eng   *sim.Engine
	rng   *sim.RNG
	prof  Profile

	retries int

	cInjected *telemetry.Counter // one per affected IO or command, not per retry
	cIOErr    *telemetry.Counter
	cCmdFail  *telemetry.Counter
	cHeld     *telemetry.Counter
}

// New wraps inner with a fault profile. rng seeds the probabilistic
// faults (transient IO errors); it may be nil when the profile has no
// IOError windows. The wrapper taps the engine's telemetry registry
// for fault_injected_total, fault_io_retries_total,
// fault_cmd_failures_total, and fault_dropout_held_total.
func New(inner device.Device, eng *sim.Engine, rng *sim.RNG, p Profile) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.RetryPenalty == 0 {
		p.RetryPenalty = 500 * time.Microsecond
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	for _, w := range p.Windows {
		if w.Kind == IOError && w.Prob > 0 && rng == nil {
			return nil, fmt.Errorf("fault: IOError windows need an RNG stream")
		}
	}
	reg := eng.Metrics()
	return &Device{
		inner: inner,
		eng:   eng,
		rng:   rng,
		prof:  p,

		cInjected: reg.Counter("fault_injected_total"),
		cIOErr:    reg.Counter("fault_io_retries_total"),
		cCmdFail:  reg.Counter("fault_cmd_failures_total"),
		cHeld:     reg.Counter("fault_dropout_held_total"),
	}, nil
}

// Retries returns the total transient-IO-error retries injected.
func (d *Device) Retries() int { return d.retries }

// activeWindow returns the first window of kind k containing the
// engine's current time, or nil.
func (d *Device) activeWindow(k Kind) *Window {
	now := d.eng.Now()
	for i := range d.prof.Windows {
		w := &d.prof.Windows[i]
		if w.Kind == k && w.contains(now) {
			return w
		}
	}
	return nil
}

// Healthy implements device.HealthReporter: false during a Dropout
// window.
func (d *Device) Healthy() bool { return d.activeWindow(Dropout) == nil }

// Submit implements device.Device. Dropout windows hold the IO until
// the window ends; transient-error injections delay the completion
// callback by their retries.
func (d *Device) Submit(r device.Request, done func()) {
	if w := d.activeWindow(Dropout); w != nil {
		d.cInjected.Inc()
		d.cHeld.Inc()
		// Release at window end; re-check then in case another dropout
		// window has started meanwhile.
		d.eng.Post(w.End(), func() { d.Submit(r, done) })
		return
	}

	// Draw the retries at submission time so the draw order is
	// deterministic.
	n := 0
	if w := d.activeWindow(IOError); w != nil && w.Prob > 0 {
		for n < d.prof.MaxRetries && d.rng.Float64() < w.Prob {
			n++
		}
	}
	if n == 0 {
		d.inner.Submit(r, done)
		return
	}
	d.cInjected.Inc()
	d.retries += n
	d.cIOErr.Add(int64(n))
	delay := time.Duration(n) * d.prof.RetryPenalty
	d.inner.Submit(r, func() { d.eng.PostAfter(delay, done) })
}

// SetPowerState implements device.Device, rejecting the command inside
// PowerCmdFail and Dropout windows.
func (d *Device) SetPowerState(index int) error {
	if d.activeWindow(Dropout) != nil {
		d.cInjected.Inc()
		d.cCmdFail.Inc()
		return ErrUnavailable
	}
	if d.activeWindow(PowerCmdFail) != nil {
		d.cInjected.Inc()
		d.cCmdFail.Inc()
		return ErrCmdFail
	}
	return d.inner.SetPowerState(index)
}

// EnterStandby implements device.Device; unavailable during dropout.
func (d *Device) EnterStandby() error {
	if d.activeWindow(Dropout) != nil {
		d.cInjected.Inc()
		return ErrUnavailable
	}
	return d.inner.EnterStandby()
}

// Wake implements device.Device; unavailable during dropout.
func (d *Device) Wake() error {
	if d.activeWindow(Dropout) != nil {
		d.cInjected.Inc()
		return ErrUnavailable
	}
	return d.inner.Wake()
}

// Name implements device.Device.
func (d *Device) Name() string { return d.inner.Name() }

// Model implements device.Device.
func (d *Device) Model() string { return d.inner.Model() }

// Protocol implements device.Device.
func (d *Device) Protocol() device.Protocol { return d.inner.Protocol() }

// CapacityBytes implements device.Device.
func (d *Device) CapacityBytes() int64 { return d.inner.CapacityBytes() }

// InstantPower implements device.Device; the electrical model is the
// inner device's, untouched by fault windows.
func (d *Device) InstantPower() float64 { return d.inner.InstantPower() }

// EnergyJ implements device.Device.
func (d *Device) EnergyJ() float64 { return d.inner.EnergyJ() }

// PowerStates implements device.Device.
func (d *Device) PowerStates() []device.PowerState { return d.inner.PowerStates() }

// PowerStateIndex implements device.Device.
func (d *Device) PowerStateIndex() int { return d.inner.PowerStateIndex() }

// Standby implements device.Device.
func (d *Device) Standby() bool { return d.inner.Standby() }

// Settled implements device.Device.
func (d *Device) Settled() bool { return d.inner.Settled() }

var (
	_ device.Device         = (*Device)(nil)
	_ device.HealthReporter = (*Device)(nil)
)
