// Package ssd implements a die-level discrete-event SSD simulator.
//
// Power is not asserted from a lookup table; it emerges from the same
// physical sources a shunt resistor on the drive's power rails would see:
// an always-on controller, a host interface that burns more when a
// transfer is in flight, NAND dies that draw program or read power while
// an operation occupies them, per-command controller energy, and bursty
// FTL/DRAM activity. NVMe power-state caps are enforced by an energy
// regulator with rolling-window semantics (internal/power), which is what
// produces the paper's throughput and tail-latency trade-offs.
package ssd

import (
	"fmt"
	"time"

	"wattio/internal/device"
)

// Config describes one SSD model. The catalog package provides
// configurations calibrated to the paper's four measured devices.
type Config struct {
	Name     string
	Model    string
	Protocol device.Protocol
	// CapacityBytes is the addressable capacity.
	CapacityBytes int64

	// Geometry.
	Channels       int
	DiesPerChannel int
	PageSize       int64
	ChannelMBps    float64 // NAND channel transfer rate per channel

	// NAND timing.
	TRead time.Duration // page read (tR)
	TProg time.Duration // page program (tPROG)

	// Host path.
	LinkMBps     float64       // host link bandwidth (PCIe or SATA)
	CmdTimeRead  time.Duration // serialized controller occupancy per read command
	CmdTimeWrite time.Duration // serialized controller occupancy per write command
	TWriteAck    time.Duration // fixed write acknowledgment overhead
	InsertBWMBps float64       // DRAM write-buffer insert bandwidth
	BufferBytes  int64         // write-buffer capacity

	// WriteAmp is the extra NAND program work for non-sequential writes
	// (steady-state write amplification); 1 means none.
	WriteAmp float64

	// Power model (watts, joules).
	PController  float64 // always-on controller + DRAM
	PIfaceIdle   float64 // host interface, link idle
	PIfaceActive float64 // host interface, transfer in flight
	PDieRead     float64 // per die while a read op is active
	PDieProg     float64 // per die while a program op is active
	EPageXferJ   float64 // channel transfer energy per page
	ECmdReadJ    float64 // controller energy per read command
	ECmdWriteJ   float64 // controller energy per write command (FTL mapping updates)

	// Activity ripple: bursty FTL/DRAM work (garbage collection,
	// mapping flushes, capacitor charging) modeled as a two-state
	// process that adds RippleBurstW while in the burst state. This is
	// what gives instantaneous traces their measured swing (Fig. 2a)
	// beyond the discrete die count.
	RippleBurstW float64
	RippleDuty   float64       // long-run fraction of active time in burst
	RippleDwell  time.Duration // mean dwell time per ripple state decision

	// Standby (ALPM SLUMBER). Enterprise NVMe parts in the paper do not
	// support it; the 860 EVO does.
	HasStandby    bool
	PSlumber      float64 // total device power in slumber
	StandbyEnter  time.Duration
	StandbyExit   time.Duration
	PStandbyEnter float64 // transition draw while entering
	PStandbyExit  float64 // transition draw while exiting

	// NonOpStates are NVMe non-operational (idle) power states entered
	// autonomously after the configured idle time when APST is enabled
	// — the client-SSD mechanism behind the paper's §2 note that SSD
	// standby "uses one-tenth of the power of the device at idle".
	// States must be ordered by increasing IdleBefore. Data-center
	// parts in the paper's Table 1 have none.
	NonOpStates []NonOpState
	// APSTDefault enables autonomous transitions at construction; the
	// host can toggle it via the NVMe APST feature (FID 0x0C).
	APSTDefault bool

	// NVMe operational power states (ps0 first). Empty means the device
	// has no host-selectable states (SATA SSDs).
	PowerStates []device.PowerState
	// CapWindow is the averaging window the NVMe descriptor specifies
	// (10 s). Firmware must satisfy the cap over ANY such window, so the
	// regulator actually allows only CapBurst worth of slack — a much
	// shorter horizon — which keeps every sliding window compliant.
	CapWindow time.Duration
	// CapBurst is the regulator's burst horizon (see CapWindow).
	CapBurst time.Duration
	// ThrottleQuantum is the granularity of firmware throttling: an
	// operation the regulator delays is released on the next quantum
	// boundary. Coarse quanta are what turn smooth energy debt into the
	// tail-latency spikes the paper measures under ps2 (Fig. 5b). Zero
	// means ideally smooth throttling (used by the ablation bench).
	ThrottleQuantum time.Duration
}

// NonOpState is one autonomous idle state.
type NonOpState struct {
	// PowerW is the device's total draw while in the state.
	PowerW float64
	// IdleBefore is how long the device must be fully idle (from the
	// moment it quiesces) before entering.
	IdleBefore time.Duration
	// ExitLatency delays the first operation after wake.
	ExitLatency time.Duration
}

// Validate checks the configuration for physical consistency.
func (c *Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("ssd: config needs a name")
	case c.CapacityBytes <= 0:
		return fmt.Errorf("ssd %s: capacity %d must be positive", c.Name, c.CapacityBytes)
	case c.Channels <= 0 || c.DiesPerChannel <= 0:
		return fmt.Errorf("ssd %s: geometry %dx%d invalid", c.Name, c.Channels, c.DiesPerChannel)
	case c.PageSize <= 0 || c.PageSize%512 != 0:
		return fmt.Errorf("ssd %s: page size %d invalid", c.Name, c.PageSize)
	case c.TRead <= 0 || c.TProg <= 0:
		return fmt.Errorf("ssd %s: NAND timings must be positive", c.Name)
	case c.LinkMBps <= 0 || c.ChannelMBps <= 0 || c.InsertBWMBps <= 0:
		return fmt.Errorf("ssd %s: bandwidths must be positive", c.Name)
	case c.BufferBytes < 4<<20:
		return fmt.Errorf("ssd %s: write buffer %d must be at least 4 MiB", c.Name, c.BufferBytes)
	case c.WriteAmp < 1:
		return fmt.Errorf("ssd %s: write amplification %v must be ≥ 1", c.Name, c.WriteAmp)
	case c.PController <= 0:
		return fmt.Errorf("ssd %s: controller power must be positive", c.Name)
	case c.RippleDuty < 0 || c.RippleDuty >= 1:
		return fmt.Errorf("ssd %s: ripple duty %v out of [0,1)", c.Name, c.RippleDuty)
	case c.HasStandby && (c.StandbyEnter <= 0 || c.StandbyExit <= 0):
		return fmt.Errorf("ssd %s: standby transitions must take time", c.Name)
	case c.HasStandby && c.PStandbyEnter < c.IdleFloorW():
		return fmt.Errorf("ssd %s: PStandbyEnter %vW below idle %vW", c.Name, c.PStandbyEnter, c.IdleFloorW())
	case c.HasStandby && c.PStandbyExit < c.IdleFloorW():
		return fmt.Errorf("ssd %s: PStandbyExit %vW below idle %vW", c.Name, c.PStandbyExit, c.IdleFloorW())
	}
	// Each of these sets a meter draw, directly or through the dies' and
	// the command pulse's effective power, and a draw is never negative.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PIfaceIdle", c.PIfaceIdle}, {"PIfaceActive", c.PIfaceActive}, {"PSlumber", c.PSlumber},
		{"RippleBurstW", c.RippleBurstW}, {"PDieRead", c.PDieRead}, {"PDieProg", c.PDieProg},
		{"EPageXferJ", c.EPageXferJ}, {"ECmdReadJ", c.ECmdReadJ}, {"ECmdWriteJ", c.ECmdWriteJ},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("ssd %s: %s %v negative", c.Name, f.name, f.v)
		}
	}
	for i, ps := range c.PowerStates {
		if ps.MaxPowerW < 0 {
			return fmt.Errorf("ssd %s: power state %d cap %v negative", c.Name, i, ps.MaxPowerW)
		}
		if ps.MaxPowerW > 0 && ps.MaxPowerW <= c.PController+c.PIfaceIdle {
			return fmt.Errorf("ssd %s: power state %d cap %vW leaves no headroom above idle %vW",
				c.Name, i, ps.MaxPowerW, c.PController+c.PIfaceIdle)
		}
	}
	if len(c.PowerStates) > 0 && (c.CapWindow <= 0 || c.CapBurst <= 0) {
		return fmt.Errorf("ssd %s: power states need a cap window and burst horizon", c.Name)
	}
	if c.ThrottleQuantum < 0 {
		return fmt.Errorf("ssd %s: throttle quantum %v negative", c.Name, c.ThrottleQuantum)
	}
	for i, st := range c.NonOpStates {
		if st.PowerW <= 0 || st.PowerW >= c.IdleFloorW() {
			return fmt.Errorf("ssd %s: non-op state %d power %vW not below idle %vW", c.Name, i, st.PowerW, c.IdleFloorW())
		}
		if st.IdleBefore <= 0 {
			return fmt.Errorf("ssd %s: non-op state %d needs a positive idle threshold", c.Name, i)
		}
		if i > 0 && st.IdleBefore <= c.NonOpStates[i-1].IdleBefore {
			return fmt.Errorf("ssd %s: non-op states must deepen with idle time", c.Name)
		}
		if i > 0 && st.PowerW >= c.NonOpStates[i-1].PowerW {
			return fmt.Errorf("ssd %s: deeper non-op state %d does not save power", c.Name, i)
		}
	}
	if c.APSTDefault && len(c.NonOpStates) == 0 {
		return fmt.Errorf("ssd %s: APST enabled without non-op states", c.Name)
	}
	return nil
}

// Dies returns the total die count.
func (c *Config) Dies() int { return c.Channels * c.DiesPerChannel }

// IdleFloorW returns the device's awake idle power: controller plus idle
// interface. Power-state regulators budget against this floor.
func (c *Config) IdleFloorW() float64 { return c.PController + c.PIfaceIdle }
