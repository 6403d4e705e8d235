package sata

import (
	"testing"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/sim"
)

func TestNewPortRejectsNVMe(t *testing.T) {
	eng := sim.NewEngine()
	dev := catalog.NewSSD2(eng, sim.NewRNG(1))
	if _, err := NewPort(dev); err == nil {
		t.Fatal("NVMe device accepted on SATA port")
	}
}

func TestALPMSlumberOnEVO(t *testing.T) {
	eng := sim.NewEngine()
	dev := catalog.NewEVO(eng, sim.NewRNG(1))
	p, err := NewPort(dev)
	if err != nil {
		t.Fatal(err)
	}
	if p.alpm != LinkActive {
		t.Fatalf("initial link state = %v, want ACTIVE", p.alpm)
	}
	if err := p.SetLinkPM(LinkSlumber); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + time.Second)
	if mode, _ := p.Command(CmdCheckPowerMode); mode != ModeStandby {
		t.Errorf("CHECK POWER MODE = %v, want standby", mode)
	}
	if got := dev.InstantPower(); got < 0.16 || got > 0.18 {
		t.Errorf("slumber power = %.3f W, want ≈ 0.17", got)
	}
	if err := p.SetLinkPM(LinkActive); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + time.Second)
	if mode, _ := p.Command(CmdCheckPowerMode); mode != ModeActive {
		t.Errorf("after wake, CHECK POWER MODE = %v, want active", mode)
	}
}

func TestALPMSlumberRejectedWithoutSupport(t *testing.T) {
	// SSD3 is a data-center SATA SSD; the paper notes standby is rarely
	// supported on such parts.
	eng := sim.NewEngine()
	dev := catalog.NewSSD3(eng, sim.NewRNG(1))
	p, err := NewPort(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetLinkPM(LinkSlumber); err == nil {
		t.Fatal("SLUMBER accepted on a device without standby support")
	}
	if p.alpm != LinkActive {
		t.Errorf("failed SLUMBER changed link state to %v", p.alpm)
	}
}

func TestStandbyImmediateSpinsDownHDD(t *testing.T) {
	eng := sim.NewEngine()
	dev := catalog.NewHDD(eng, sim.NewRNG(1))
	p, err := NewPort(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Command(CmdStandbyImmediate); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + 5*time.Second)
	if mode, _ := p.Command(CmdCheckPowerMode); mode != ModeStandby {
		t.Errorf("CHECK POWER MODE = %v, want standby", mode)
	}
	if got := dev.InstantPower(); got < 1.05 || got > 1.15 {
		t.Errorf("spun-down power = %.3f W, want ≈ 1.1", got)
	}
	if _, err := p.Command(CmdIdleImmediate); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + 10*time.Second)
	if mode, _ := p.Command(CmdCheckPowerMode); mode != ModeActive {
		t.Errorf("after IDLE IMMEDIATE, mode = %v, want active", mode)
	}
}

func TestUnsupportedCommand(t *testing.T) {
	eng := sim.NewEngine()
	p, _ := NewPort(catalog.NewHDD(eng, sim.NewRNG(1)))
	if _, err := p.Command(0x42); err == nil {
		t.Fatal("unknown ATA command accepted")
	}
}

func TestPartialTreatedAsActive(t *testing.T) {
	eng := sim.NewEngine()
	dev := catalog.NewEVO(eng, sim.NewRNG(1))
	p, _ := NewPort(dev)
	if err := p.SetLinkPM(LinkPartial); err != nil {
		t.Fatal(err)
	}
	if dev.Standby() {
		t.Error("PARTIAL put device into standby")
	}
	if p.alpm != LinkPartial {
		t.Errorf("link state = %v, want PARTIAL", p.alpm)
	}
}

func TestStrings(t *testing.T) {
	for _, s := range []string{LinkActive.String(), LinkSlumber.String(), ModeStandby.String(), ModeActive.String(), PowerMode(0x33).String(), LinkPM(9).String()} {
		if s == "" {
			t.Error("empty string rendering")
		}
	}
}
