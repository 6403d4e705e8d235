// Package hdd implements a mechanical hard-disk simulator: seek and
// rotational positioning, zoned media transfer, native command queuing
// (shortest-positioning-time selection), a write-back cache, and the
// spindle-dominated power model that gives HDDs their narrow active
// dynamic range and their slow, expensive standby transitions.
package hdd

import (
	"fmt"
	"time"

	"wattio/internal/device"
	"wattio/internal/power"
	"wattio/internal/sim"
	"wattio/internal/telemetry"
)

// Config describes one HDD model. The catalog package provides the
// configuration calibrated to the paper's Seagate Exos 7E2000.
type Config struct {
	Name          string
	Model         string
	CapacityBytes int64

	// Mechanics.
	RPM        int           // spindle speed
	SeekBase   time.Duration // settle time, any non-zero seek
	SeekFull   time.Duration // additional time for a full-stroke seek (scaled by sqrt of distance)
	MediaOuter float64       // MB/s at LBA 0
	MediaInner float64       // MB/s at the last LBA

	// Host path.
	LinkMBps float64       // SATA link
	CmdTime  time.Duration // per-command controller overhead

	// Write-back cache.
	CacheBytes int64

	// DisableNCQ makes the head serve accesses FIFO instead of by
	// shortest positioning time. Exists for the ablation benchmarks.
	DisableNCQ bool

	// Power model (watts).
	PSpindle  float64 // spinning, heads parked over track
	PElec     float64 // controller + interface electronics
	PSeek     float64 // additional while the actuator moves
	PXfer     float64 // additional while media transfer is active
	PIfaceAct float64 // additional while the SATA link transfers

	// Standby (spin-down).
	PStandby  float64       // total power spun down
	PSpinDown float64       // total power while decelerating
	PSpinUp   float64       // total power while accelerating
	TSpinDown time.Duration // deceleration time
	TSpinUp   time.Duration // acceleration time
}

// Validate checks the configuration for physical consistency.
func (c *Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("hdd: config needs a name")
	case c.CapacityBytes <= 0:
		return fmt.Errorf("hdd %s: capacity must be positive", c.Name)
	case c.RPM <= 0:
		return fmt.Errorf("hdd %s: RPM must be positive", c.Name)
	case c.MediaOuter <= 0 || c.MediaInner <= 0 || c.MediaInner > c.MediaOuter:
		return fmt.Errorf("hdd %s: media rates invalid (outer %v, inner %v)", c.Name, c.MediaOuter, c.MediaInner)
	case c.LinkMBps <= 0:
		return fmt.Errorf("hdd %s: link bandwidth must be positive", c.Name)
	case c.CacheBytes < 1<<20:
		return fmt.Errorf("hdd %s: cache %d must be at least 1 MiB", c.Name, c.CacheBytes)
	case c.PSpindle <= 0 || c.PElec <= 0:
		return fmt.Errorf("hdd %s: base powers must be positive", c.Name)
	case c.TSpinDown <= 0 || c.TSpinUp <= 0:
		return fmt.Errorf("hdd %s: spin transitions must take time", c.Name)
	case c.PSpinDown < c.PElec:
		return fmt.Errorf("hdd %s: PSpinDown %vW below PElec %vW", c.Name, c.PSpinDown, c.PElec)
	case c.PSpinUp < c.PElec:
		return fmt.Errorf("hdd %s: PSpinUp %vW below PElec %vW", c.Name, c.PSpinUp, c.PElec)
	}
	for _, f := range []struct {
		name string
		w    float64
	}{{"PSeek", c.PSeek}, {"PXfer", c.PXfer}, {"PIfaceAct", c.PIfaceAct}, {"PStandby", c.PStandby}} {
		if !(f.w >= 0) {
			return fmt.Errorf("hdd %s: %s %vW negative", c.Name, f.name, f.w)
		}
	}
	return nil
}

// spin is the spindle state machine.
type spin int

const (
	spinning spin = iota
	flushing      // standby requested, draining dirty cache
	spinningDown
	spunDown
	spinningUp
)

// access is one media access awaiting head time: either a host read or a
// cache-drain write.
type access struct {
	offset int64
	size   int64
	read   bool
	done   func() // read completion (sends data back over the link); nil for drain writes
}

// The meter's components, index-aligned with componentNames.
const (
	cSpindle power.Component = iota
	cElec
	cSeek
	cXfer
	cIface
)

// componentNames is every HDD meter's shared name table.
var componentNames = []string{"spindle", "electronics", "actuator", "media", "interface"}

// HDD is a simulated hard-disk drive. It implements device.Device.
type HDD struct {
	cfg  *Config // the class's shared configuration; never written
	name string
	eng  *sim.Engine
	rng  *sim.RNG

	meter *power.Meter

	// Component draws in µW, each rounded once from the config.
	spindleUW  int64
	elecUW     int64
	seekUW     int64
	xferUW     int64
	ifaceUW    int64
	standbyUW  int64
	spinDownUW int64 // spindle draw while decelerating: PSpinDown above PElec
	spinUpUW   int64 // spindle draw while accelerating: PSpinUp above PElec

	spin       spin
	headPos    int64 // byte offset proxy for cylinder position
	headBusy   bool
	lastEnd    int64 // end offset of the last media access (sequential detection)
	cmdFreeAt  time.Duration
	linkFreeAt time.Duration

	queue []access // NCQ: pending media accesses

	dirty      int64 // bytes in write cache awaiting drain
	cacheWait  []cacheWaiter
	pendingIOs []pendingIO // IOs arrived while spun down / spinning up

	revolution time.Duration

	// Telemetry. All handles are nil-safe no-ops when the engine has no
	// telemetry attached.
	tr       *telemetry.Tracer
	laneHead string
	lane     string
	taps     taps
}

// taps holds the device's metric handles, fetched once at construction.
type taps struct {
	seeks      *telemetry.Counter
	seekNs     *telemetry.Histogram
	queueDepth *telemetry.Gauge
	drains     *telemetry.Counter
	spinDowns  *telemetry.Counter
	spinUps    *telemetry.Counter
}

type cacheWaiter struct {
	bytes int64
	cont  func()
}

type pendingIO struct {
	r    device.Request
	done func()
}

// New constructs the HDD named name, of the class cfg describes,
// attached to the engine, spinning and idle. The device keeps cfg, so
// every instance of a class shares one Config, which must not change
// afterwards; cfg.Name names the class, and Name and Config report the
// instance name.
func New(cfg *Config, name string, eng *sim.Engine, rng *sim.RNG) (*HDD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if name == "" {
		return nil, fmt.Errorf("hdd %s: instance needs a name", cfg.Name)
	}
	d := &HDD{
		cfg:        cfg,
		name:       name,
		eng:        eng,
		rng:        rng.Stream("hdd/" + name),
		meter:      power.NewMeter(eng.Now(), componentNames),
		revolution: time.Duration(60.0 / float64(cfg.RPM) * float64(time.Second)),
		spindleUW:  power.MicroW(cfg.PSpindle),
		elecUW:     power.MicroW(cfg.PElec),
		seekUW:     power.MicroW(cfg.PSeek),
		xferUW:     power.MicroW(cfg.PXfer),
		ifaceUW:    power.MicroW(cfg.PIfaceAct),
		standbyUW:  power.MicroW(cfg.PStandby),
		spinDownUW: power.MicroW(cfg.PSpinDown - cfg.PElec),
		spinUpUW:   power.MicroW(cfg.PSpinUp - cfg.PElec),
	}
	d.meter.Set(cSpindle, d.spindleUW, eng.Now())
	d.meter.Set(cElec, d.elecUW, eng.Now())

	reg := eng.Metrics()
	d.taps = taps{
		seeks:      reg.Counter("hdd_seeks_total"),
		seekNs:     reg.Histogram("hdd_seek_ns"),
		queueDepth: reg.Gauge("hdd_queue_depth"),
		drains:     reg.Counter("hdd_cache_drains_total"),
		spinDowns:  reg.Counter("hdd_spin_downs_total"),
		spinUps:    reg.Counter("hdd_spin_ups_total"),
	}
	d.tr = eng.Tracer()
	if d.tr.Enabled() {
		d.lane = name
		d.laneHead = name + "/head"
	}
	return d, nil
}

// Name implements device.Device.
func (d *HDD) Name() string { return d.name }

// Model implements device.Device.
func (d *HDD) Model() string { return d.cfg.Model }

// Protocol implements device.Device.
func (d *HDD) Protocol() device.Protocol { return device.SATA }

// CapacityBytes implements device.Device.
func (d *HDD) CapacityBytes() int64 { return d.cfg.CapacityBytes }

// Config returns a copy of the device's configuration, named after the
// instance.
func (d *HDD) Config() Config {
	c := *d.cfg
	c.Name = d.name
	return c
}

// InstantPower implements device.Device.
func (d *HDD) InstantPower() float64 { return d.meter.Instant(d.eng.Now()) }

// EnergyJ implements device.Device.
func (d *HDD) EnergyJ() float64 { return d.meter.Energy(d.eng.Now()) }

// PowerStates implements device.Device. HDDs have no NVMe-style
// operational power states.
func (d *HDD) PowerStates() []device.PowerState { return nil }

// SetPowerState implements device.Device.
func (d *HDD) SetPowerState(int) error { return device.ErrNotSupported }

// PowerStateIndex implements device.Device.
func (d *HDD) PowerStateIndex() int { return 0 }

// Standby implements device.Device.
func (d *HDD) Standby() bool {
	return d.spin == flushing || d.spin == spinningDown || d.spin == spunDown
}

// Settled implements device.Device.
func (d *HDD) Settled() bool { return d.spin == spinning || d.spin == spunDown }

// EnergyComponents returns the per-component accounted energies in
// joules up to the current virtual time. The components partition
// EnergyJ; the telemetry energy-conservation probe checks that. names
// is the class's shared table, which callers must not modify.
func (d *HDD) EnergyComponents() (names []string, joules []float64) {
	return d.meter.Names(), d.meter.EnergyBreakdown(d.eng.Now())
}
