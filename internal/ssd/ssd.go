package ssd

import (
	"fmt"
	"time"

	"wattio/internal/device"
	"wattio/internal/power"
	"wattio/internal/sim"
	"wattio/internal/telemetry"
)

// mode is the device's standby state machine.
type mode int

const (
	awake mode = iota
	entering
	standby
	waking
)

// The meter's components, index-aligned with componentNames.
const (
	cCtrl power.Component = iota
	cIface
	cCmd
	cRipple
	cTrans
	cDies // every die's draw: busyProg·progNW + busyRead·readNW, in µW
)

// componentNames is every SSD meter's shared name table.
var componentNames = []string{"controller", "interface", "cmd", "ripple", "transition", "dies"}

// SSD is a simulated solid-state drive. It implements device.Device.
type SSD struct {
	cfg  *Config // the class's shared configuration; never written
	name string
	eng  *sim.Engine
	rng  *sim.RNG

	meter *power.Meter

	reg          power.Regulator
	psIndex      int
	stateReadyAt time.Duration

	// Serialized resources, as busy-until horizons, and the dies busy
	// with programs and with reads.
	cmdFreeAt  time.Duration
	linkFreeAt time.Duration
	dieFreeAt  []time.Duration
	busyProg   int
	busyRead   int

	// Free lists for the pooled IO-path records (see io.go).
	freeOp   *ssdOp
	freePage *pageOp
	// postAll turns off every event fold of the IO path: each hop is
	// posted (see hop), and each NAND page is its own start/end event
	// pair (postRuns' exactness fallback). Tests set it to hold the
	// folds to the events they replace.
	postAll bool

	// FTL state. hostPending and ampPending are bytes accumulated in
	// open pages awaiting a full-page program; a flush timer programs
	// partial pages when the stream goes quiet.
	nextDie      int
	lastWriteEnd int64
	hostPending  int64
	ampPending   int64
	flushTimer   *sim.Timer

	// Write buffer.
	bufFree    int64
	bufWaiters []bufWaiter

	// Standby state machine.
	mode    mode
	pending []pendingIO

	// APST (non-operational idle states).
	apstEnabled bool
	nonOpIndex  int // -1 when operational
	apstTimer   *sim.Timer
	apstArmed   bool

	// Activity tracking for the ripple process.
	inflight      int
	rippleRunning bool
	rippleBurst   bool
	rippleTimer   *sim.Timer

	// Derived constants.
	pageXfer time.Duration
	eRead    float64 // regulated energy per page read
	eProg    float64 // regulated energy per page program

	// Component draws in µW, each rounded once from the config.
	ctrlUW       int64
	ifaceIdleUW  int64
	ifaceActUW   int64
	slumberUW    int64
	enterUW      int64 // transition draw above the idle floor, entering standby
	exitUW       int64 // the same, leaving standby
	rippleUW     int64
	pulseReadUW  int64 // controller cmd-pulse draw for a read command
	pulseWriteUW int64 // controller cmd-pulse draw for a write command
	// A die's effective draw during a page read and a page program, in
	// nW: the dies' draw is rounded to µW once, not once per die.
	readNW int64
	progNW int64

	// Telemetry. All handles are nil-safe no-ops when the engine has no
	// telemetry attached.
	tr       *telemetry.Tracer
	laneDies []string // tracer lane per die
	lane     string   // tracer lane for device-level instants
	taps     taps
}

// taps holds the device's metric handles, fetched once at construction.
type taps struct {
	stalls       *telemetry.Counter
	stallNs      *telemetry.Histogram
	throttleRels *telemetry.Counter
	pageFlushes  *telemetry.Counter
	diesBusy     *telemetry.Gauge
	pagePrograms *telemetry.Counter
	pageReads    *telemetry.Counter
	standbys     *telemetry.Counter
	wakes        *telemetry.Counter
}

type bufWaiter struct {
	bytes int64
	cont  func()
}

type pendingIO struct {
	r    device.Request
	done func()
}

// New constructs the SSD named name, of the class cfg describes,
// attached to the engine and drawing idle power from time zero. The
// device keeps cfg, so every instance of a class shares one Config,
// which must not change afterwards; cfg.Name names the class, and Name
// and Config report the instance name. The RNG seeds the
// activity-ripple process. A device's per-die state is one flat slice
// and one meter component carries every die's draw, so construction
// makes a handful of allocations whatever the die count.
func New(cfg *Config, name string, eng *sim.Engine, rng *sim.RNG) (*SSD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if name == "" {
		return nil, fmt.Errorf("ssd %s: instance needs a name", cfg.Name)
	}
	n := cfg.Dies()
	d := &SSD{
		cfg:         cfg,
		name:        name,
		eng:         eng,
		rng:         rng.Stream("ssd/" + name),
		meter:       power.NewMeter(eng.Now(), componentNames),
		bufFree:     cfg.BufferBytes,
		apstEnabled: cfg.APSTDefault,
		nonOpIndex:  -1,
	}
	d.dieFreeAt = make([]time.Duration, n)

	reg := eng.Metrics()
	d.taps = taps{
		stalls:       reg.Counter("ssd_regulator_stalls_total"),
		stallNs:      reg.Histogram("ssd_regulator_stall_ns"),
		throttleRels: reg.Counter("ssd_throttle_releases_total"),
		pageFlushes:  reg.Counter("ssd_open_page_flushes_total"),
		diesBusy:     reg.Gauge("ssd_dies_busy"),
		pagePrograms: reg.Counter("ssd_page_programs_total"),
		pageReads:    reg.Counter("ssd_page_reads_total"),
		standbys:     reg.Counter("ssd_standby_enters_total"),
		wakes:        reg.Counter("ssd_wakes_total"),
	}
	d.tr = eng.Tracer()
	if d.tr.Enabled() {
		d.lane = name
		d.laneDies = make([]string, n)
		for i := range d.laneDies {
			d.laneDies[i] = fmt.Sprintf("%s/die%d", name, i)
		}
	}

	d.pageXfer = time.Duration(float64(cfg.PageSize) / (cfg.ChannelMBps * 1e6) * float64(time.Second))
	if cfg.CmdTimeRead > 0 {
		d.pulseReadUW = power.MicroW(cfg.ECmdReadJ / cfg.CmdTimeRead.Seconds())
	}
	if cfg.CmdTimeWrite > 0 {
		d.pulseWriteUW = power.MicroW(cfg.ECmdWriteJ / cfg.CmdTimeWrite.Seconds())
	}
	d.eRead = cfg.PDieRead*cfg.TRead.Seconds() + cfg.EPageXferJ
	d.eProg = cfg.PDieProg*cfg.TProg.Seconds() + cfg.EPageXferJ
	d.readNW = power.NanoW(d.eRead / (cfg.TRead + d.pageXfer).Seconds())
	d.progNW = power.NanoW(d.eProg / (cfg.TProg + d.pageXfer).Seconds())
	d.ctrlUW = power.MicroW(cfg.PController)
	d.ifaceIdleUW = power.MicroW(cfg.PIfaceIdle)
	d.ifaceActUW = power.MicroW(cfg.PIfaceActive)
	d.rippleUW = power.MicroW(cfg.RippleBurstW)
	if cfg.HasStandby {
		d.slumberUW = power.MicroW(cfg.PSlumber)
		d.enterUW = power.MicroW(cfg.PStandbyEnter - cfg.IdleFloorW())
		d.exitUW = power.MicroW(cfg.PStandbyExit - cfg.IdleFloorW())
	}
	d.meter.Set(cCtrl, d.ctrlUW, eng.Now())
	d.meter.Set(cIface, d.ifaceIdleUW, eng.Now())

	if len(cfg.PowerStates) > 0 {
		if err := d.SetPowerState(0); err != nil {
			return nil, err
		}
	}
	d.armAPST()
	return d, nil
}

// Name implements device.Device.
func (d *SSD) Name() string { return d.name }

// Model implements device.Device.
func (d *SSD) Model() string { return d.cfg.Model }

// Protocol implements device.Device.
func (d *SSD) Protocol() device.Protocol { return d.cfg.Protocol }

// CapacityBytes implements device.Device.
func (d *SSD) CapacityBytes() int64 { return d.cfg.CapacityBytes }

// Config returns a copy of the device's configuration, named after the
// instance. Its slices alias the class's shared tables: read them only.
func (d *SSD) Config() Config {
	c := *d.cfg
	c.Name = d.name
	return c
}

// InstantPower implements device.Device.
func (d *SSD) InstantPower() float64 { return d.meter.Instant(d.eng.Now()) }

// EnergyJ implements device.Device.
func (d *SSD) EnergyJ() float64 { return d.meter.Energy(d.eng.Now()) }

// EnergyComponents returns the per-component accounted energies in
// joules up to the current virtual time, every die's as one "dies"
// entry. The components partition EnergyJ; the telemetry
// energy-conservation probe checks that. names is the class's shared
// table, which callers must not modify.
func (d *SSD) EnergyComponents() (names []string, joules []float64) {
	return d.meter.Names(), d.meter.EnergyBreakdown(d.eng.Now())
}

// PowerStates implements device.Device. It returns the class's shared
// table, which callers must not modify.
func (d *SSD) PowerStates() []device.PowerState { return d.cfg.PowerStates }

// PowerStateIndex implements device.Device.
func (d *SSD) PowerStateIndex() int { return d.psIndex }

// SetPowerState implements device.Device. The new cap takes effect after
// the descriptor's entry latency; admissions pause until then, modeling
// the transition stall.
func (d *SSD) SetPowerState(index int) error {
	if len(d.cfg.PowerStates) == 0 {
		return device.ErrNotSupported
	}
	if index < 0 || index >= len(d.cfg.PowerStates) {
		return fmt.Errorf("%w: %d of %d", device.ErrBadPowerState, index, len(d.cfg.PowerStates))
	}
	ps := d.cfg.PowerStates[index]
	d.psIndex = index
	now := d.eng.Now()
	ready := now + ps.EntryLatency
	if ready > d.stateReadyAt {
		d.stateReadyAt = ready
	}
	if ps.MaxPowerW == 0 {
		d.reg = power.Uncapped()
	} else {
		d.reg = power.NewRegulator(ps.MaxPowerW-d.cfg.IdleFloorW(), d.cfg.CapBurst, now)
	}
	return nil
}

// Standby implements device.Device.
func (d *SSD) Standby() bool { return d.mode == entering || d.mode == standby }

// Settled implements device.Device.
func (d *SSD) Settled() bool { return d.mode == awake || d.mode == standby }

// EnterStandby implements device.Device. For SATA SSDs this is the ALPM
// SLUMBER transition: a short burst of flush/state-save work, then the
// link and most of the controller power off.
func (d *SSD) EnterStandby() error {
	if !d.cfg.HasStandby {
		return device.ErrNotSupported
	}
	if d.mode != awake {
		return nil // already in, or on the way to, standby
	}
	d.exitNonOp()
	d.stopAPSTTimer()
	now := d.eng.Now()
	d.mode = entering
	d.taps.standbys.Inc()
	d.tr.Instant(d.lane, "ssd", "standby_enter", now)
	d.meter.Set(cTrans, d.enterUW, now)
	d.eng.PostAfter(d.cfg.StandbyEnter, func() {
		if d.mode != entering {
			return
		}
		t := d.eng.Now()
		d.mode = standby
		d.meter.Set(cTrans, 0, t)
		d.meter.Set(cCtrl, d.slumberUW, t)
		d.meter.Set(cIface, 0, t)
		if len(d.pending) > 0 {
			// IO arrived while the link was powering down; come back.
			d.startWake()
		}
	})
	return nil
}

// Wake implements device.Device.
func (d *SSD) Wake() error {
	if !d.cfg.HasStandby {
		return device.ErrNotSupported
	}
	switch d.mode {
	case standby:
		d.startWake()
	case entering:
		// Queue the wake behind the in-progress entry; the entry
		// completion sees pending work and re-wakes. Register intent
		// with a sentinel pending entry only if none exists.
		if len(d.pending) == 0 {
			d.pending = append(d.pending, pendingIO{})
		}
	}
	return nil
}

func (d *SSD) startWake() {
	now := d.eng.Now()
	d.mode = waking
	d.taps.wakes.Inc()
	d.tr.Instant(d.lane, "ssd", "wake", now)
	d.meter.Set(cCtrl, d.ctrlUW, now)
	d.meter.Set(cTrans, d.exitUW, now)
	d.eng.PostAfter(d.cfg.StandbyExit, func() {
		t := d.eng.Now()
		d.mode = awake
		d.meter.Set(cTrans, 0, t)
		d.meter.Set(cIface, d.ifaceIdleUW, t)
		ps := d.pending
		d.pending = nil
		for _, p := range ps {
			if p.done == nil {
				continue // wake-intent sentinel
			}
			d.begin(p.r, p.done)
		}
	})
}

// Submit implements device.Device.
func (d *SSD) Submit(r device.Request, done func()) {
	if err := r.Validate(d.cfg.CapacityBytes); err != nil {
		panic(fmt.Sprintf("ssd %s: %v", d.name, err))
	}
	if r.Size > d.cfg.BufferBytes {
		panic(fmt.Sprintf("ssd %s: request size %d exceeds buffer %d", d.name, r.Size, d.cfg.BufferBytes))
	}
	if done == nil {
		panic("ssd: Submit with nil done")
	}
	if d.mode != awake {
		d.pending = append(d.pending, pendingIO{r, done})
		d.Wake()
		return
	}
	d.exitNonOp()
	d.stopAPSTTimer()
	d.begin(r, done)
}
