// Package sata provides the AHCI/ATA control surface the paper uses on
// SATA devices: Aggressive Link Power Management (ALPM) for SSD standby
// (the SLUMBER state that halves the 860 EVO's idle power) and the ATA
// STANDBY IMMEDIATE / CHECK POWER MODE commands for HDD spin-down.
package sata

import (
	"fmt"

	"wattio/internal/device"
)

// LinkPM is an ALPM link power-management state.
type LinkPM int

// Link states in decreasing power order.
const (
	LinkActive LinkPM = iota
	LinkPartial
	LinkSlumber
)

// String returns the AHCI name of the link state.
func (l LinkPM) String() string {
	switch l {
	case LinkActive:
		return "ACTIVE"
	case LinkPartial:
		return "PARTIAL"
	case LinkSlumber:
		return "SLUMBER"
	}
	return fmt.Sprintf("LinkPM(%d)", int(l))
}

// ATA power-management command codes.
const (
	CmdStandbyImmediate uint8 = 0xE0
	CmdIdleImmediate    uint8 = 0xE1
	CmdStandby          uint8 = 0xE2
	CmdCheckPowerMode   uint8 = 0xE5
)

// PowerMode is the CHECK POWER MODE result (ATA spec values).
type PowerMode uint8

// CHECK POWER MODE return values.
const (
	ModeStandby PowerMode = 0x00
	ModeIdle    PowerMode = 0x80
	ModeActive  PowerMode = 0xFF
)

// String returns the ATA name of the mode.
func (m PowerMode) String() string {
	switch m {
	case ModeStandby:
		return "standby"
	case ModeIdle:
		return "idle"
	case ModeActive:
		return "active/idle"
	}
	return fmt.Sprintf("PowerMode(0x%02x)", uint8(m))
}

// Port is one AHCI port with a SATA device attached.
type Port struct {
	dev  device.Device
	alpm LinkPM
}

// NewPort attaches to a SATA device; NVMe devices are rejected.
func NewPort(dev device.Device) (*Port, error) {
	if dev.Protocol() != device.SATA {
		return nil, fmt.Errorf("sata: %s is %s, not SATA", dev.Name(), dev.Protocol())
	}
	return &Port{dev: dev}, nil
}

// Device returns the attached device.
func (p *Port) Device() device.Device { return p.dev }

// SetLinkPM commands an ALPM transition. SLUMBER puts the device into
// its low-power standby (for SSDs that support it); leaving SLUMBER
// wakes it. PARTIAL is accepted but treated as ACTIVE for devices whose
// partial state saves nothing measurable.
func (p *Port) SetLinkPM(l LinkPM) error {
	switch l {
	case LinkActive, LinkPartial:
		prev := p.alpm
		p.alpm = l
		if prev == LinkSlumber {
			return p.dev.Wake()
		}
		return nil
	case LinkSlumber:
		if err := p.dev.EnterStandby(); err != nil {
			return fmt.Errorf("sata: %s does not support SLUMBER: %w", p.dev.Name(), err)
		}
		p.alpm = LinkSlumber
		return nil
	default:
		return fmt.Errorf("sata: unknown link state %d", int(l))
	}
}

// Command issues one ATA power-management command.
func (p *Port) Command(code uint8) (PowerMode, error) {
	switch code {
	case CmdStandbyImmediate, CmdStandby:
		if err := p.dev.EnterStandby(); err != nil {
			return 0, fmt.Errorf("sata: STANDBY IMMEDIATE on %s: %w", p.dev.Name(), err)
		}
		return ModeStandby, nil
	case CmdIdleImmediate:
		if err := p.dev.Wake(); err != nil {
			return 0, fmt.Errorf("sata: IDLE IMMEDIATE on %s: %w", p.dev.Name(), err)
		}
		return ModeIdle, nil
	case CmdCheckPowerMode:
		if p.dev.Standby() {
			return ModeStandby, nil
		}
		return ModeActive, nil
	default:
		return 0, fmt.Errorf("sata: unsupported command 0x%02X", code)
	}
}
