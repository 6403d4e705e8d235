// Package catalog provides device models calibrated to the five drives
// the paper measures: the four Table-1 devices (SSD1 = Samsung PM9A3,
// SSD2 = Intel D7-P5510, SSD3 = Intel D3-P4510, HDD = Seagate Exos
// 7E2000) plus the Samsung 860 EVO used for the standby experiment.
//
// Calibration targets come from the paper's published numbers: measured
// power ranges (Table 1), power-state caps and their throughput/latency
// consequences (Figs. 3-6), standby levels and transition times (§3.2.2,
// Fig. 7), and IO-shaping trade-offs (Figs. 8-10). The calibration test
// suite asserts each target.
package catalog

import (
	"time"

	"wattio/internal/device"
	"wattio/internal/hdd"
	"wattio/internal/sim"
	"wattio/internal/ssd"
)

// KiB and related constants express IO sizes the way the paper does.
const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
)

// SSD1Config returns the calibrated model of the Samsung PM9A3 (NVMe,
// measured 3.5-13.5 W). Its signature behavior in the paper: 3.3 GiB/s
// random write at only ~8.2 W average, with instantaneous swings to
// 13.5 W (Fig. 2a).
func SSD1Config() ssd.Config {
	return ssd.Config{
		Name:          "SSD1",
		Model:         "Samsung PM9A3",
		Protocol:      device.NVMe,
		CapacityBytes: 3840 * 1000 * 1000 * 1000,

		Channels:       16,
		DiesPerChannel: 8,
		PageSize:       16 * KiB,
		ChannelMBps:    1200,
		TRead:          45 * time.Microsecond,
		TProg:          500 * time.Microsecond,

		LinkMBps:     3550, // PCIe 3 x4, the paper's host limit
		CmdTimeRead:  3500 * time.Nanosecond,
		CmdTimeWrite: 2200 * time.Nanosecond,
		TWriteAck:    18 * time.Microsecond,
		InsertBWMBps: 9000,
		BufferBytes:  256 * MiB,
		WriteAmp:     1.03,

		PController:  2.3,
		PIfaceIdle:   1.2,
		PIfaceActive: 2.2,
		PDieRead:     16e-3,
		PDieProg:     22e-3,
		EPageXferJ:   4e-6,
		ECmdReadJ:    0.5e-6,
		ECmdWriteJ:   2e-6,

		RippleBurstW: 4.6,
		RippleDuty:   0.065,
		RippleDwell:  4 * time.Millisecond,

		PowerStates: []device.PowerState{
			{MaxPowerW: 12, EntryLatency: 100 * time.Microsecond, ExitLatency: 100 * time.Microsecond},
			{MaxPowerW: 7, EntryLatency: 100 * time.Microsecond, ExitLatency: 100 * time.Microsecond},
			{MaxPowerW: 6, EntryLatency: 100 * time.Microsecond, ExitLatency: 100 * time.Microsecond},
		},
		CapWindow:       10 * time.Second,
		CapBurst:        25 * time.Millisecond,
		ThrottleQuantum: 5 * time.Millisecond,
	}
}

// SSD2Config returns the calibrated model of the Intel D7-P5510 (NVMe,
// measured 5-15.1 W). Its signature behavior: three power states (ps0
// <25 W, ps1 12 W, ps2 10 W) whose caps crush sequential-write
// throughput to 74% (ps1) and 55% (ps2) of ps0 while barely touching
// reads, and whose random-write tail latency at qd1 inflates up to
// ~6.2x under ps2.
func SSD2Config() ssd.Config {
	return ssd.Config{
		Name:          "SSD2",
		Model:         "Intel D7-P5510",
		Protocol:      device.NVMe,
		CapacityBytes: 3840 * 1000 * 1000 * 1000,

		Channels:       16,
		DiesPerChannel: 8,
		PageSize:       16 * KiB,
		ChannelMBps:    800,
		TRead:          50 * time.Microsecond,
		TProg:          600 * time.Microsecond,

		LinkMBps:     3400,
		CmdTimeRead:  4 * time.Microsecond,
		CmdTimeWrite: 2500 * time.Nanosecond,
		TWriteAck:    8 * time.Microsecond,
		InsertBWMBps: 8000,
		BufferBytes:  256 * MiB,
		WriteAmp:     1.05,

		PController:  3.5,
		PIfaceIdle:   1.5,
		PIfaceActive: 3.0,
		PDieRead:     30e-3,
		PDieProg:     55e-3,
		EPageXferJ:   6e-6,
		ECmdReadJ:    0.5e-6,
		ECmdWriteJ:   4.5e-6,

		RippleBurstW: 0.7,
		RippleDuty:   0.3,
		RippleDwell:  4 * time.Millisecond,

		PowerStates: []device.PowerState{
			{MaxPowerW: 25, EntryLatency: 100 * time.Microsecond, ExitLatency: 100 * time.Microsecond},
			{MaxPowerW: 12, EntryLatency: 100 * time.Microsecond, ExitLatency: 100 * time.Microsecond},
			{MaxPowerW: 10, EntryLatency: 100 * time.Microsecond, ExitLatency: 100 * time.Microsecond},
		},
		CapWindow:       10 * time.Second,
		CapBurst:        25 * time.Millisecond,
		ThrottleQuantum: 5 * time.Millisecond,
	}
}

// SSD3Config returns the calibrated model of the Intel D3-P4510 (SATA
// per the paper's Table 1, measured 1-3.5 W): link-bound, no
// host-selectable power states.
func SSD3Config() ssd.Config {
	return ssd.Config{
		Name:          "SSD3",
		Model:         "Intel D3-P4510",
		Protocol:      device.SATA,
		CapacityBytes: 1920 * 1000 * 1000 * 1000,

		Channels:       8,
		DiesPerChannel: 4,
		PageSize:       16 * KiB,
		ChannelMBps:    400,
		TRead:          60 * time.Microsecond,
		TProg:          800 * time.Microsecond,

		LinkMBps:     530,
		CmdTimeRead:  12 * time.Microsecond,
		CmdTimeWrite: 15 * time.Microsecond,
		TWriteAck:    25 * time.Microsecond,
		InsertBWMBps: 2500,
		BufferBytes:  64 * MiB,
		WriteAmp:     1.05,

		PController:  0.6,
		PIfaceIdle:   0.4,
		PIfaceActive: 1.2,
		PDieRead:     25e-3,
		PDieProg:     46e-3,
		EPageXferJ:   5e-6,
		ECmdReadJ:    2e-6,
		ECmdWriteJ:   3e-6,

		RippleBurstW: 0.25,
		RippleDuty:   0.15,
		RippleDwell:  15 * time.Millisecond,
	}
}

// EVOConfig returns the calibrated model of the Samsung 860 EVO, the
// desktop SATA SSD the paper uses to demonstrate ALPM SLUMBER: idle
// 0.35 W, slumber 0.17 W, transitions within half a second with a
// visible power blip (Fig. 7).
func EVOConfig() ssd.Config {
	return ssd.Config{
		Name:          "EVO",
		Model:         "Samsung 860 EVO",
		Protocol:      device.SATA,
		CapacityBytes: 1000 * 1000 * 1000 * 1000,

		Channels:       8,
		DiesPerChannel: 4,
		PageSize:       16 * KiB,
		ChannelMBps:    400,
		TRead:          60 * time.Microsecond,
		TProg:          1300 * time.Microsecond,

		LinkMBps:     550,
		CmdTimeRead:  15 * time.Microsecond,
		CmdTimeWrite: 20 * time.Microsecond,
		TWriteAck:    30 * time.Microsecond,
		InsertBWMBps: 2000,
		BufferBytes:  32 * MiB,
		WriteAmp:     1.1,

		PController:  0.22,
		PIfaceIdle:   0.13,
		PIfaceActive: 0.75,
		PDieRead:     20e-3,
		PDieProg:     35e-3,
		EPageXferJ:   3e-6,
		ECmdReadJ:    1e-6,
		ECmdWriteJ:   1.5e-6,

		RippleBurstW: 0.3,
		RippleDuty:   0.1,
		RippleDwell:  15 * time.Millisecond,

		HasStandby:    true,
		PSlumber:      0.17,
		StandbyEnter:  120 * time.Millisecond,
		StandbyExit:   300 * time.Millisecond,
		PStandbyEnter: 0.55,
		PStandbyExit:  0.60,
	}
}

// HDDConfig returns the calibrated model of the Seagate Exos 7E2000
// (SATA HDD, measured 1-5.3 W): idle 3.76 W spinning, 1.1 W spun down,
// spin-up taking most of ten seconds.
func HDDConfig() hdd.Config {
	return hdd.Config{
		Name:          "HDD",
		Model:         "Seagate Exos 7E2000",
		CapacityBytes: 2000 * 1000 * 1000 * 1000,

		RPM:        7200,
		SeekBase:   time.Millisecond,
		SeekFull:   14400 * time.Microsecond,
		MediaOuter: 210,
		MediaInner: 110,

		LinkMBps:   550,
		CmdTime:    60 * time.Microsecond,
		CacheBytes: 128 * MiB,

		PSpindle:  3.10,
		PElec:     0.66,
		PSeek:     2.00,
		PXfer:     0.35,
		PIfaceAct: 0.15,

		PStandby:  1.10,
		PSpinDown: 2.00,
		PSpinUp:   5.50,
		TSpinDown: 1500 * time.Millisecond,
		TSpinUp:   8500 * time.Millisecond,
	}
}

// NewSSD1 builds the SSD1 model on an engine.
func NewSSD1(eng *sim.Engine, rng *sim.RNG) *ssd.SSD {
	return mustSSD(ssdTemplates["SSD1"], "SSD1", eng, rng)
}

// NewSSD2 builds the SSD2 model on an engine.
func NewSSD2(eng *sim.Engine, rng *sim.RNG) *ssd.SSD {
	return mustSSD(ssdTemplates["SSD2"], "SSD2", eng, rng)
}

// NewSSD3 builds the SSD3 model on an engine.
func NewSSD3(eng *sim.Engine, rng *sim.RNG) *ssd.SSD {
	return mustSSD(ssdTemplates["SSD3"], "SSD3", eng, rng)
}

// NewEVO builds the 860 EVO model on an engine.
func NewEVO(eng *sim.Engine, rng *sim.RNG) *ssd.SSD {
	return mustSSD(ssdTemplates["EVO"], "EVO", eng, rng)
}

// NewHDD builds the Exos 7E2000 model on an engine.
func NewHDD(eng *sim.Engine, rng *sim.RNG) *hdd.HDD { return mustHDD("HDD", eng, rng) }

// Names lists the buildable device labels: the paper's Table-1 four,
// the 860 EVO standby subject, and the client C960 APST extension.
func Names() []string { return []string{"SSD1", "SSD2", "SSD3", "HDD", "EVO", "C960"} }

// NewNamed builds one device from a catalog profile under a caller-
// chosen instance name. Fleet-scale layers (internal/serve) instantiate
// hundreds of devices from the same profile; each needs a unique name
// because models, budget controllers, and telemetry lanes key on it.
// Every instance points at its class's interned config, so the whole
// fleet shares one Config per class instead of copying it per device.
func NewNamed(profile, name string, eng *sim.Engine, rng *sim.RNG) (device.Device, bool) {
	if cfg, ok := ssdTemplates[profile]; ok {
		return mustSSD(cfg, name, eng, rng), true
	}
	if profile == "HDD" {
		return mustHDD(name, eng, rng), true
	}
	return nil, false
}

// StagedBytes is the largest request of op that a profile's model
// stages whole, or 0 when nothing bounds it: an SSD holds every request
// in its write buffer (it panics on a larger one), and an HDD admits a
// write only once all of it fits its write cache (it never admits a
// larger one). Request sizes taken from users are checked against it.
func StagedBytes(profile string, op device.Op) int64 {
	if cfg, ok := ssdTemplates[profile]; ok {
		return cfg.BufferBytes
	}
	if profile == "HDD" && op == device.OpWrite {
		return hddTemplate.CacheBytes
	}
	return 0
}

// mustSSD builds SSD instance name from a calibrated interned config.
func mustSSD(cfg *ssd.Config, name string, eng *sim.Engine, rng *sim.RNG) *ssd.SSD {
	d, err := ssd.New(cfg, name, eng, rng)
	if err != nil {
		panic(err) // calibrated config; cannot fail
	}
	return d
}

// mustHDD builds HDD instance name from the interned config.
func mustHDD(name string, eng *sim.Engine, rng *sim.RNG) *hdd.HDD {
	d, err := hdd.New(hddTemplate, name, eng, rng)
	if err != nil {
		panic(err) // calibrated config; cannot fail
	}
	return d
}

// C960Config returns a client NVMe SSD model (Samsung 960 EVO — the
// paper's reference [25] for "standby ... uses one-tenth of the power
// of the device at idle"). Unlike the Table-1 data-center parts it has
// NVMe non-operational states and ships with APST enabled, so it idles
// itself down autonomously. Provided as an extension device; it is not
// part of the paper's evaluated set.
func C960Config() ssd.Config {
	return ssd.Config{
		Name:          "C960",
		Model:         "Samsung 960 EVO",
		Protocol:      device.NVMe,
		CapacityBytes: 1000 * 1000 * 1000 * 1000,

		Channels:       8,
		DiesPerChannel: 4,
		PageSize:       16 * KiB,
		ChannelMBps:    1200,
		TRead:          60 * time.Microsecond,
		TProg:          280 * time.Microsecond, // TLC behind an SLC cache

		LinkMBps:     3200,
		CmdTimeRead:  5 * time.Microsecond,
		CmdTimeWrite: 4 * time.Microsecond,
		TWriteAck:    12 * time.Microsecond,
		InsertBWMBps: 6000,
		BufferBytes:  96 * MiB,
		WriteAmp:     1.08,

		PController:  0.35,
		PIfaceIdle:   0.15,
		PIfaceActive: 1.15,
		PDieRead:     22e-3,
		PDieProg:     95e-3,
		EPageXferJ:   3e-6,
		ECmdReadJ:    1e-6,
		ECmdWriteJ:   2e-6,

		RippleBurstW: 0.5,
		RippleDuty:   0.08,
		RippleDwell:  6 * time.Millisecond,

		NonOpStates: []ssd.NonOpState{
			{PowerW: 0.08, IdleBefore: 200 * time.Millisecond, ExitLatency: time.Millisecond},
			{PowerW: 0.05, IdleBefore: 2 * time.Second, ExitLatency: 8 * time.Millisecond},
		},
		APSTDefault: true,

		PowerStates: []device.PowerState{
			{MaxPowerW: 6.0},
			{MaxPowerW: 5.0, EntryLatency: 100 * time.Microsecond, ExitLatency: 100 * time.Microsecond},
			{MaxPowerW: 4.0, EntryLatency: 100 * time.Microsecond, ExitLatency: 100 * time.Microsecond},
		},
		CapWindow:       10 * time.Second,
		CapBurst:        25 * time.Millisecond,
		ThrottleQuantum: 5 * time.Millisecond,
	}
}
