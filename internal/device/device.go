// Package device defines the common abstraction for simulated storage
// devices: the request model, the power-control surface, and the Device
// interface that the workload engine, measurement rig, and protocol
// adapters (internal/nvme, internal/sata) all program against.
package device

import (
	"errors"
	"fmt"
	"time"
)

// Op is the direction of an IO request.
type Op int

const (
	// OpRead transfers data from the device to the host.
	OpRead Op = iota
	// OpWrite transfers data from the host to the device.
	OpWrite
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Protocol is the host interface a device attaches through.
type Protocol int

const (
	// NVMe devices attach over PCIe and expose NVMe power states.
	NVMe Protocol = iota
	// SATA devices attach over AHCI and support ALPM link power
	// management and STANDBY IMMEDIATE.
	SATA
)

// String returns the protocol name as the paper's Table 1 prints it.
func (p Protocol) String() string {
	if p == NVMe {
		return "NVMe"
	}
	return "SATA"
}

// Request is one IO submitted to a device. Offset and Size are in bytes;
// direct IO alignment (512 B) is the caller's responsibility and is
// validated by implementations.
type Request struct {
	Op     Op
	Offset int64
	Size   int64
}

// Validate checks alignment and bounds against a device capacity.
func (r Request) Validate(capacity int64) error {
	const sector = 512
	if r.Size <= 0 {
		return fmt.Errorf("device: request size %d must be positive", r.Size)
	}
	if r.Offset < 0 {
		return fmt.Errorf("device: negative offset %d", r.Offset)
	}
	if r.Offset%sector != 0 || r.Size%sector != 0 {
		return fmt.Errorf("device: request %d+%d not %d-byte aligned", r.Offset, r.Size, sector)
	}
	if r.Offset+r.Size > capacity {
		return fmt.Errorf("device: request %d+%d exceeds capacity %d", r.Offset, r.Size, capacity)
	}
	return nil
}

// PowerState describes one NVMe-style operational power state: a cap on
// average power over the cap window, plus entry/exit latencies.
type PowerState struct {
	// MaxPowerW caps average power over the cap window; 0 means
	// uncapped (the state admits the device's full draw).
	MaxPowerW float64
	// EntryLatency and ExitLatency are the transition costs the NVMe
	// power-state descriptor advertises (ENLAT/EXLAT).
	EntryLatency time.Duration
	ExitLatency  time.Duration
}

// Errors returned by the power-control surface.
var (
	// ErrNotSupported indicates the device has no such control (e.g.,
	// power states on an HDD).
	ErrNotSupported = errors.New("device: operation not supported")
	// ErrBadPowerState indicates an out-of-range power state index.
	ErrBadPowerState = errors.New("device: power state out of range")
)

// HealthReporter is implemented by devices that can become unavailable
// — in practice fault-injection wrappers (internal/fault) whose dropout
// or brownout windows take the command surface offline. Plain device
// models never drop, so they do not implement it.
type HealthReporter interface {
	// Healthy reports whether the device is reachable right now. IO
	// submitted to an unhealthy device is not lost, but it stalls until
	// the device recovers; control-plane components should route around
	// unhealthy devices instead.
	Healthy() bool
}

// Healthy reports d's availability. Devices that do not implement
// HealthReporter are always healthy.
func Healthy(d Device) bool {
	if h, ok := d.(HealthReporter); ok {
		return h.Healthy()
	}
	return true
}

// Device is a simulated storage device attached to a sim.Engine. All
// methods are event-loop-synchronous: they must be called from the
// simulation goroutine, and completions are delivered as engine events.
type Device interface {
	// Name returns the device label (e.g. "SSD2").
	Name() string
	// Model returns the marketing model string (e.g. "Intel D7-P5510").
	Model() string
	// Protocol returns the host interface type.
	Protocol() Protocol
	// CapacityBytes returns the addressable capacity.
	CapacityBytes() int64

	// Submit enqueues an IO. done runs as an engine event when the IO
	// completes. Submit panics on an invalid request: workload bugs
	// should fail loudly, not corrupt an experiment.
	Submit(r Request, done func())

	// InstantPower returns the instantaneous electrical draw in watts
	// at the engine's current virtual time. The measurement rig
	// samples this through the shunt/ADC chain.
	InstantPower() float64
	// EnergyJ returns cumulative energy in joules since construction.
	EnergyJ() float64

	// PowerStates lists the device's operational power states, ps0
	// first. Devices without NVMe-style states return nil. The slice
	// may be shared by every device of a class: callers must not
	// modify it.
	PowerStates() []PowerState
	// SetPowerState selects a power state by index.
	SetPowerState(index int) error
	// PowerStateIndex returns the current power state index.
	PowerStateIndex() int

	// EnterStandby begins the transition to the device's low-power
	// standby state (ALPM SLUMBER for SATA SSDs, spin-down for HDDs).
	// The transition takes device-specific time; IO submitted while in
	// or entering standby wakes the device and waits.
	EnterStandby() error
	// Wake begins the transition out of standby. It is idempotent.
	Wake() error
	// Standby reports whether the device is in (or entering) standby.
	Standby() bool
	// Settled reports that no standby/wake transition is in progress:
	// the device is fully awake or fully in standby.
	Settled() bool
}
