package ssd

import (
	"math"
	"testing"
	"time"

	"wattio/internal/device"
	"wattio/internal/sim"
)

func withAPST(c *Config) {
	c.PowerStates = nil
	c.NonOpStates = []NonOpState{
		{PowerW: 0.3, IdleBefore: 100 * time.Millisecond, ExitLatency: time.Millisecond},
		{PowerW: 0.1, IdleBefore: time.Second, ExitLatency: 10 * time.Millisecond},
	}
	c.APSTDefault = true
}

func TestAPSTEntersAfterIdle(t *testing.T) {
	d, eng := newTest(t, withAPST)
	if d.nonOpIndex != -1 {
		t.Fatal("not operational at construction")
	}
	eng.RunUntil(150 * time.Millisecond)
	if d.nonOpIndex != 0 {
		t.Fatalf("NonOpIndex = %d after 150ms idle, want 0", d.nonOpIndex)
	}
	if got := d.InstantPower(); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("non-op power = %v, want 0.3", got)
	}
	// Deepens at the 1 s threshold.
	eng.RunUntil(1100 * time.Millisecond)
	if d.nonOpIndex != 1 {
		t.Fatalf("NonOpIndex = %d after 1.1s idle, want 1", d.nonOpIndex)
	}
	if got := d.InstantPower(); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("deep non-op power = %v, want 0.1", got)
	}
}

func TestAPSTWakePaysExitLatency(t *testing.T) {
	d, eng := newTest(t, withAPST)
	eng.RunUntil(1100 * time.Millisecond) // deep state, 10ms exit
	start := eng.Now()
	done := false
	d.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 4096}, func() { done = true })
	for !done && eng.Step() {
	}
	if !done {
		t.Fatal("read never completed")
	}
	lat := eng.Now() - start
	if lat < 10*time.Millisecond {
		t.Errorf("wake read took %v, want ≥ 10ms exit latency", lat)
	}
	if d.nonOpIndex != -1 {
		t.Error("device not operational right after IO")
	}
	if got := d.InstantPower(); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("post-wake idle power = %v, want 1.5", got)
	}
	// Left alone again, it autonomously re-idles all the way down.
	eng.Run()
	if d.nonOpIndex != 1 {
		t.Errorf("NonOpIndex = %d after quiescing again, want 1", d.nonOpIndex)
	}
}

func TestAPSTReentersAfterActivity(t *testing.T) {
	d, eng := newTest(t, withAPST)
	eng.RunUntil(150 * time.Millisecond)
	d.Submit(device.Request{Op: device.OpWrite, Offset: 0, Size: 64 << 10}, func() {})
	eng.RunUntil(eng.Now() + 50*time.Millisecond)
	if d.nonOpIndex != -1 {
		t.Fatal("device non-op while draining")
	}
	// After the write drains (incl. flush timer) + 100ms idle, it drops
	// again.
	eng.RunUntil(eng.Now() + 300*time.Millisecond)
	if d.nonOpIndex != 0 {
		t.Fatalf("NonOpIndex = %d after re-idle, want 0", d.nonOpIndex)
	}
}

func TestAPSTDisableWakes(t *testing.T) {
	d, eng := newTest(t, withAPST)
	eng.RunUntil(150 * time.Millisecond)
	if err := d.SetAPST(false); err != nil {
		t.Fatal(err)
	}
	if d.nonOpIndex != -1 {
		t.Error("disable did not wake the device")
	}
	eng.RunUntil(2 * time.Second)
	if d.nonOpIndex != -1 {
		t.Error("disabled APST still transitioned")
	}
	if err := d.SetAPST(true); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + 150*time.Millisecond)
	if d.nonOpIndex != 0 {
		t.Error("re-enabled APST did not transition")
	}
}

func TestAPSTUnsupportedWithoutStates(t *testing.T) {
	d, _ := newTest(t, nil)
	if err := d.SetAPST(true); err != device.ErrNotSupported {
		t.Errorf("SetAPST = %v, want ErrNotSupported", err)
	}
	if d.APST() {
		t.Error("APST reported enabled without states")
	}
}

func TestAPSTConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"state above idle", func(c *Config) {
			withAPST(c)
			c.NonOpStates[0].PowerW = 2.0
		}},
		{"zero idle threshold", func(c *Config) {
			withAPST(c)
			c.NonOpStates[0].IdleBefore = 0
		}},
		{"thresholds not increasing", func(c *Config) {
			withAPST(c)
			c.NonOpStates[1].IdleBefore = 50 * time.Millisecond
		}},
		{"deeper state not cheaper", func(c *Config) {
			withAPST(c)
			c.NonOpStates[1].PowerW = 0.4
		}},
		{"apst without states", func(c *Config) {
			c.PowerStates = nil
			c.APSTDefault = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mod(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid APST config accepted")
			}
		})
	}
}

func TestAPSTInteractsWithALPMStandby(t *testing.T) {
	d, eng := newTest(t, func(c *Config) {
		withAPST(c)
		withStandby(c)
		c.NonOpStates = []NonOpState{{PowerW: 0.2, IdleBefore: 100 * time.Millisecond, ExitLatency: time.Millisecond}}
		c.APSTDefault = true
	})
	eng.RunUntil(150 * time.Millisecond)
	if d.nonOpIndex != 0 {
		t.Fatal("not in non-op state")
	}
	// Explicit ALPM standby overrides APST.
	if err := d.EnterStandby(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + time.Second)
	if !d.Standby() || d.nonOpIndex != -1 {
		t.Error("standby did not supersede the non-op state")
	}
	if got := d.InstantPower(); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("slumber power = %v, want 0.3 (PSlumber)", got)
	}
}

func TestAPSTDeterministicWithRNG(t *testing.T) {
	run := func() time.Duration {
		cfg := testConfig()
		withAPST(&cfg)
		eng := sim.NewEngine()
		d, err := New(&cfg, cfg.Name, eng, sim.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(1100 * time.Millisecond)
		done := false
		d.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 4096}, func() { done = true })
		eng.Run()
		if !done {
			t.Fatal("incomplete")
		}
		return eng.Now()
	}
	if run() != run() {
		t.Fatal("APST runs not deterministic")
	}
}
