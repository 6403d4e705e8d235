// Package nvme provides the NVMe admin-command surface the paper drives
// with nvme-cli: Identify Controller with its power-state descriptor
// table, and Get/Set Features for Power Management (FID 0x02). The
// command encoding mirrors the spec closely enough that a hardware
// ioctl backend could be substituted for the simulator.
package nvme

import (
	"fmt"

	"wattio/internal/device"
)

// Admin opcodes (NVMe spec §5).
const (
	OpIdentify    uint8 = 0x06
	OpSetFeatures uint8 = 0x09
	OpGetFeatures uint8 = 0x0A
)

// Feature identifiers (NVMe spec §5.27.1).
const (
	FIDPowerManagement uint8 = 0x02
	FIDAutonomousPST   uint8 = 0x0C
)

// apstDevice is the optional capability devices with non-operational
// power states implement (client SSDs; see ssd.Config.NonOpStates).
type apstDevice interface {
	SetAPST(bool) error
	APST() bool
}

// StatusCode is an NVMe completion status (generic command set).
type StatusCode uint16

// Completion status codes.
const (
	SCSuccess       StatusCode = 0x00
	SCInvalidOpcode StatusCode = 0x01
	SCInvalidField  StatusCode = 0x02
)

// String returns the spec name of the status code.
func (s StatusCode) String() string {
	switch s {
	case SCSuccess:
		return "Successful Completion"
	case SCInvalidOpcode:
		return "Invalid Command Opcode"
	case SCInvalidField:
		return "Invalid Field in Command"
	}
	return fmt.Sprintf("Status 0x%02x", uint16(s))
}

// Command is a simplified admin submission-queue entry: the opcode plus
// the two dwords the power-management feature uses.
type Command struct {
	Opcode uint8
	CDW10  uint32 // FID for features; CNS for identify
	CDW11  uint32 // feature value (PS in bits 4:0 for FID 0x02)
}

// Completion carries the status and result dword of an admin command.
type Completion struct {
	Status StatusCode
	Result uint32
}

// PowerStateDesc is one entry of the Identify Controller power-state
// descriptor table, in the spec's units.
type PowerStateDesc struct {
	MaxPowerCentiW uint32 // MP: maximum power in 0.01 W units
	EntryLatUs     uint32 // ENLAT
	ExitLatUs      uint32 // EXLAT
}

// IdentifyController is the subset of the Identify Controller data
// structure the study uses.
type IdentifyController struct {
	ModelNumber string
	NPSS        uint8 // number of power states minus one
	PSD         []PowerStateDesc
}

// Controller exposes the admin surface of one NVMe device.
type Controller struct {
	dev device.Device
}

// NewController attaches to an NVMe device. SATA devices are rejected:
// they have no NVMe admin queue.
func NewController(dev device.Device) (*Controller, error) {
	if dev.Protocol() != device.NVMe {
		return nil, fmt.Errorf("nvme: %s is %s, not NVMe", dev.Name(), dev.Protocol())
	}
	return &Controller{dev: dev}, nil
}

// Device returns the underlying device.
func (c *Controller) Device() device.Device { return c.dev }

// Execute processes one admin command synchronously, the way the kernel
// admin queue pair would.
func (c *Controller) Execute(cmd Command) Completion {
	switch cmd.Opcode {
	case OpGetFeatures:
		switch uint8(cmd.CDW10) {
		case FIDPowerManagement:
			return Completion{Status: SCSuccess, Result: uint32(c.dev.PowerStateIndex()) & 0x1F}
		case FIDAutonomousPST:
			a, ok := c.dev.(apstDevice)
			if !ok {
				return Completion{Status: SCInvalidField}
			}
			var v uint32
			if a.APST() {
				v = 1
			}
			return Completion{Status: SCSuccess, Result: v}
		default:
			return Completion{Status: SCInvalidField}
		}
	case OpSetFeatures:
		switch uint8(cmd.CDW10) {
		case FIDPowerManagement:
			ps := int(cmd.CDW11 & 0x1F)
			if err := c.dev.SetPowerState(ps); err != nil {
				return Completion{Status: SCInvalidField}
			}
			return Completion{Status: SCSuccess}
		case FIDAutonomousPST:
			a, ok := c.dev.(apstDevice)
			if !ok {
				return Completion{Status: SCInvalidField}
			}
			if err := a.SetAPST(cmd.CDW11&1 == 1); err != nil {
				return Completion{Status: SCInvalidField}
			}
			return Completion{Status: SCSuccess}
		default:
			return Completion{Status: SCInvalidField}
		}
	case OpIdentify:
		// Identify transfers a data buffer out of band; callers use the
		// typed Identify method. The command itself just succeeds for
		// CNS=1 (controller).
		if cmd.CDW10 != 1 {
			return Completion{Status: SCInvalidField}
		}
		return Completion{Status: SCSuccess}
	default:
		return Completion{Status: SCInvalidOpcode}
	}
}

// Identify returns the controller identification with the power-state
// descriptor table.
func (c *Controller) Identify() IdentifyController {
	states := c.dev.PowerStates()
	id := IdentifyController{
		ModelNumber: c.dev.Model(),
		PSD:         make([]PowerStateDesc, len(states)),
	}
	if len(states) > 0 {
		id.NPSS = uint8(len(states) - 1)
	}
	for i, ps := range states {
		id.PSD[i] = PowerStateDesc{
			MaxPowerCentiW: uint32(ps.MaxPowerW * 100),
			EntryLatUs:     uint32(ps.EntryLatency.Microseconds()),
			ExitLatUs:      uint32(ps.ExitLatency.Microseconds()),
		}
	}
	return id
}

// SetPowerState issues Set Features (Power Management) for ps.
func (c *Controller) SetPowerState(ps int) error {
	if ps < 0 || ps > 0x1F {
		return fmt.Errorf("nvme: power state %d out of field range", ps)
	}
	comp := c.Execute(Command{Opcode: OpSetFeatures, CDW10: uint32(FIDPowerManagement), CDW11: uint32(ps)})
	if comp.Status != SCSuccess {
		return fmt.Errorf("nvme: set power state %d: %s", ps, comp.Status)
	}
	return nil
}

// GetPowerState issues Get Features (Power Management).
func (c *Controller) GetPowerState() (int, error) {
	comp := c.Execute(Command{Opcode: OpGetFeatures, CDW10: uint32(FIDPowerManagement)})
	if comp.Status != SCSuccess {
		return 0, fmt.Errorf("nvme: get power state: %s", comp.Status)
	}
	return int(comp.Result & 0x1F), nil
}

// SetAPST issues Set Features (Autonomous Power State Transition).
func (c *Controller) SetAPST(enable bool) error {
	var v uint32
	if enable {
		v = 1
	}
	comp := c.Execute(Command{Opcode: OpSetFeatures, CDW10: uint32(FIDAutonomousPST), CDW11: v})
	if comp.Status != SCSuccess {
		return fmt.Errorf("nvme: set APST: %s", comp.Status)
	}
	return nil
}

// GetAPST issues Get Features (Autonomous Power State Transition).
func (c *Controller) GetAPST() (bool, error) {
	comp := c.Execute(Command{Opcode: OpGetFeatures, CDW10: uint32(FIDAutonomousPST)})
	if comp.Status != SCSuccess {
		return false, fmt.Errorf("nvme: get APST: %s", comp.Status)
	}
	return comp.Result&1 == 1, nil
}
