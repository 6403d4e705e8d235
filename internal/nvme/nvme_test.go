package nvme

import (
	"testing"

	"wattio/internal/catalog"
	"wattio/internal/sim"
)

func newCtrl(t *testing.T) *Controller {
	t.Helper()
	eng := sim.NewEngine()
	dev := catalog.NewSSD2(eng, sim.NewRNG(1))
	c, err := NewController(dev)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewControllerRejectsSATA(t *testing.T) {
	eng := sim.NewEngine()
	dev := catalog.NewSSD3(eng, sim.NewRNG(1))
	if _, err := NewController(dev); err == nil {
		t.Fatal("SATA device accepted as NVMe controller")
	}
}

func TestIdentifyPowerStateTable(t *testing.T) {
	c := newCtrl(t)
	id := c.Identify()
	if id.ModelNumber != "Intel D7-P5510" {
		t.Errorf("model = %q", id.ModelNumber)
	}
	if id.NPSS != 2 {
		t.Errorf("NPSS = %d, want 2 (three states)", id.NPSS)
	}
	if len(id.PSD) != 3 {
		t.Fatalf("PSD has %d entries, want 3", len(id.PSD))
	}
	// SSD2's descriptor table: ps0 < 25 W, ps1 12 W, ps2 10 W.
	want := []uint32{2500, 1200, 1000}
	for i, w := range want {
		if id.PSD[i].MaxPowerCentiW != w {
			t.Errorf("PSD[%d].MP = %d centiW, want %d", i, id.PSD[i].MaxPowerCentiW, w)
		}
	}
	if id.PSD[1].EntryLatUs != 100 {
		t.Errorf("ENLAT = %d µs, want 100", id.PSD[1].EntryLatUs)
	}
}

func TestSetGetPowerStateRoundTrip(t *testing.T) {
	c := newCtrl(t)
	for _, ps := range []int{2, 1, 0} {
		if err := c.SetPowerState(ps); err != nil {
			t.Fatalf("SetPowerState(%d): %v", ps, err)
		}
		got, err := c.GetPowerState()
		if err != nil {
			t.Fatal(err)
		}
		if got != ps {
			t.Errorf("GetPowerState = %d, want %d", got, ps)
		}
		if c.Device().PowerStateIndex() != ps {
			t.Errorf("device power state = %d, want %d", c.Device().PowerStateIndex(), ps)
		}
	}
}

func TestSetPowerStateOutOfRange(t *testing.T) {
	c := newCtrl(t)
	if err := c.SetPowerState(7); err == nil {
		t.Error("nonexistent power state accepted")
	}
	if err := c.SetPowerState(-1); err == nil {
		t.Error("negative power state accepted")
	}
	if err := c.SetPowerState(32); err == nil {
		t.Error("power state beyond field width accepted")
	}
}

func TestExecuteRawCommands(t *testing.T) {
	c := newCtrl(t)
	cases := []struct {
		name string
		cmd  Command
		want StatusCode
	}{
		{"set PM", Command{Opcode: OpSetFeatures, CDW10: uint32(FIDPowerManagement), CDW11: 1}, SCSuccess},
		{"get PM", Command{Opcode: OpGetFeatures, CDW10: uint32(FIDPowerManagement)}, SCSuccess},
		{"identify ctrl", Command{Opcode: OpIdentify, CDW10: 1}, SCSuccess},
		{"identify bad CNS", Command{Opcode: OpIdentify, CDW10: 9}, SCInvalidField},
		{"unknown opcode", Command{Opcode: 0x00 /* Delete I/O SQ */}, SCInvalidOpcode},
		{"unsupported FID", Command{Opcode: OpSetFeatures, CDW10: 0x01 /* Arbitration */}, SCInvalidField},
		{"set PM bad state", Command{Opcode: OpSetFeatures, CDW10: uint32(FIDPowerManagement), CDW11: 30}, SCInvalidField},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := c.Execute(tc.cmd).Status; got != tc.want {
				t.Errorf("status = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestGetFeatureReflectsSetFeature(t *testing.T) {
	c := newCtrl(t)
	c.Execute(Command{Opcode: OpSetFeatures, CDW10: uint32(FIDPowerManagement), CDW11: 2})
	comp := c.Execute(Command{Opcode: OpGetFeatures, CDW10: uint32(FIDPowerManagement)})
	if comp.Result != 2 {
		t.Errorf("result = %d, want 2", comp.Result)
	}
}

func TestStatusCodeStrings(t *testing.T) {
	if SCSuccess.String() == "" || SCInvalidOpcode.String() == "" || StatusCode(0x99).String() == "" {
		t.Error("empty status string")
	}
}

func TestAPSTFeatureOnClientSSD(t *testing.T) {
	eng := sim.NewEngine()
	dev, _ := catalog.NewNamed("C960", "C960", eng, sim.NewRNG(1))
	c, err := NewController(dev)
	if err != nil {
		t.Fatal(err)
	}
	on, err := c.GetAPST()
	if err != nil {
		t.Fatal(err)
	}
	if !on {
		t.Error("C960 ships with APST enabled")
	}
	if err := c.SetAPST(false); err != nil {
		t.Fatal(err)
	}
	if on, _ = c.GetAPST(); on {
		t.Error("APST still enabled after disable")
	}
	if err := c.SetAPST(true); err != nil {
		t.Fatal(err)
	}
	if on, _ = c.GetAPST(); !on {
		t.Error("APST not re-enabled")
	}
}

func TestAPSTFeatureRejectedOnDataCenterSSD(t *testing.T) {
	c := newCtrl(t) // SSD2: no non-operational states
	if err := c.SetAPST(true); err == nil {
		t.Error("APST accepted on device without non-op states")
	}
	// Reading the feature succeeds and reports disabled: the feature
	// register exists even when no non-operational states back it.
	on, err := c.GetAPST()
	if err != nil {
		t.Fatal(err)
	}
	if on {
		t.Error("APST reported enabled on device without non-op states")
	}
}
