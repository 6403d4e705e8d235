package ssd

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"wattio/internal/device"
	"wattio/internal/sim"
)

// testConfig is a small, fast SSD for unit tests: 4×2 dies, no ripple,
// so behavior is exactly predictable.
func testConfig() Config {
	return Config{
		Name:          "T1",
		Model:         "Test SSD",
		Protocol:      device.NVMe,
		CapacityBytes: 1 << 30,

		Channels:       4,
		DiesPerChannel: 2,
		PageSize:       16 << 10,
		ChannelMBps:    800,
		TRead:          50 * time.Microsecond,
		TProg:          500 * time.Microsecond,

		LinkMBps:     1000,
		CmdTimeRead:  2 * time.Microsecond,
		CmdTimeWrite: 2 * time.Microsecond,
		TWriteAck:    5 * time.Microsecond,
		InsertBWMBps: 4000,
		BufferBytes:  8 << 20,
		WriteAmp:     1.0,

		PController:  1.0,
		PIfaceIdle:   0.5,
		PIfaceActive: 1.0,
		PDieRead:     20e-3,
		PDieProg:     40e-3,
		EPageXferJ:   2e-6,
		ECmdReadJ:    1e-6,
		ECmdWriteJ:   1e-6,

		PowerStates: []device.PowerState{
			{MaxPowerW: 10},
			{MaxPowerW: 1.7},
		},
		CapWindow:       10 * time.Second,
		CapBurst:        10 * time.Millisecond,
		ThrottleQuantum: time.Millisecond,
	}
}

func newTest(t *testing.T, mod func(*Config)) (*SSD, *sim.Engine) {
	t.Helper()
	cfg := testConfig()
	if mod != nil {
		mod(&cfg)
	}
	eng := sim.NewEngine()
	d, err := New(&cfg, cfg.Name, eng, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return d, eng
}

// TestNewAllocsIndependentOfDies: a device's per-die state is one flat
// slice, and one meter component carries every die's draw, so
// constructing a 128-die SSD costs no more allocations than an 8-die
// one. The device shares its config and holds its regulator inline,
// and its RNG stream is one object, so the count is 6.
func TestNewAllocsIndependentOfDies(t *testing.T) {
	allocs := func(channels, diesPer int) float64 {
		cfg := testConfig()
		cfg.Channels, cfg.DiesPerChannel = channels, diesPer
		eng, rng := sim.NewEngine(), sim.NewRNG(1)
		return testing.AllocsPerRun(20, func() {
			if _, err := New(&cfg, cfg.Name, eng, rng); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4, 2), allocs(16, 8)
	if large != small || large > 5 {
		t.Fatalf("New allocates %.0f times at 8 dies and %.0f at 128; want equal and at most 5", small, large)
	}
	d, _ := newTest(t, func(c *Config) { c.Channels, c.DiesPerChannel = 16, 8 })
	names, _ := d.EnergyComponents()
	if got := names[len(names)-1]; len(names) != 6 || got != "dies" {
		t.Fatalf("meter components %q, want the dies' draw as the sixth and last", names)
	}
}

// TestPageOpFitsSizeClass: a device holds a pageOp per page run in
// flight, and a field past 64 bytes moves the record to Go's next size
// class.
func TestPageOpFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(pageOp{}); n > 64 {
		t.Fatalf("pageOp is %d bytes, want at most 64", n)
	}
}

// TestSSDFitsSizeClass: a fleet holds one SSD record per device, and a
// field past 576 bytes moves every record to Go's 640-byte size class.
// The record shares its class config and holds its regulator inline; at
// 936 bytes, in the 1024-byte class, pure-1k lost most of the exact
// energy ledger's gain.
func TestSSDFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(SSD{}); n > 576 {
		t.Fatalf("SSD is %d bytes, want at most 576", n)
	}
}

// TestPageRunsAllocateNothing: once the device's pools are warm, writes
// and reads whose pages start at several times allocate nothing. A
// 16 KiB write leaves its die programming; the 128 KiB read submitted on
// its ack and the 128 KiB write behind it each cover all 8 dies, so each
// waits for that die.
func TestPageRunsAllocateNothing(t *testing.T) {
	d, eng := newTest(t, nil)
	read := func() {
		d.Submit(device.Request{Op: device.OpRead, Offset: 16 << 10, Size: 128 << 10}, func() {})
	}
	burst := func() {
		d.Submit(device.Request{Op: device.OpWrite, Size: 16 << 10}, read)
		d.Submit(device.Request{Op: device.OpWrite, Offset: 1 << 20, Size: 128 << 10}, func() {})
		eng.Run()
	}
	burst()
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		t.Fatalf("a burst allocates %.1f times, want 0", n)
	}
}

// standbyAt gives c a standby mode whose transitions draw enter and
// exit watts in total.
func standbyAt(c *Config, enter, exit float64) {
	c.HasStandby = true
	c.StandbyEnter, c.StandbyExit = time.Millisecond, time.Millisecond
	c.PSlumber, c.PStandbyEnter, c.PStandbyExit = 0.2, enter, exit
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
		want string
	}{
		{"no name", func(c *Config) { c.Name = "" }, "name"},
		{"zero capacity", func(c *Config) { c.CapacityBytes = 0 }, "capacity"},
		{"no dies", func(c *Config) { c.Channels = 0 }, "geometry"},
		{"bad page", func(c *Config) { c.PageSize = 1000 }, "page size"},
		{"zero tprog", func(c *Config) { c.TProg = 0 }, "timings"},
		{"zero link", func(c *Config) { c.LinkMBps = 0 }, "bandwidths"},
		{"tiny buffer", func(c *Config) { c.BufferBytes = 1 << 20 }, "buffer"},
		{"amp below one", func(c *Config) { c.WriteAmp = 0.5 }, "amplification"},
		{"no controller power", func(c *Config) { c.PController = 0 }, "controller"},
		{"duty out of range", func(c *Config) { c.RippleDuty = 1 }, "duty"},
		{"cap below idle", func(c *Config) { c.PowerStates[1].MaxPowerW = 1.0 }, "headroom"},
		{"negative cap", func(c *Config) { c.PowerStates[1].MaxPowerW = -1 }, "negative"},
		{"no cap window", func(c *Config) { c.CapWindow = 0 }, "window"},
		{"negative quantum", func(c *Config) { c.ThrottleQuantum = -time.Second }, "quantum"},
		{"standby without times", func(c *Config) { c.HasStandby = true }, "standby"},
		{"standby entry below idle", func(c *Config) { standbyAt(c, 1.4, 2) }, "PStandbyEnter"},
		{"standby exit below idle", func(c *Config) { standbyAt(c, 2, 1.4) }, "PStandbyExit"},
		{"negative idle interface", func(c *Config) { c.PIfaceIdle = -0.1 }, "PIfaceIdle"},
		{"negative active interface", func(c *Config) { c.PIfaceActive = -1 }, "PIfaceActive"},
		{"negative slumber", func(c *Config) { c.PSlumber = -0.1 }, "PSlumber"},
		{"negative ripple", func(c *Config) { c.RippleBurstW = -0.1 }, "RippleBurstW"},
		{"negative die read", func(c *Config) { c.PDieRead = -1e-3 }, "PDieRead"},
		{"negative die program", func(c *Config) { c.PDieProg = -1e-3 }, "PDieProg"},
		{"negative page transfer", func(c *Config) { c.EPageXferJ = -1e-6 }, "EPageXferJ"},
		{"negative read command", func(c *Config) { c.ECmdReadJ = -1e-6 }, "ECmdReadJ"},
		{"negative write command", func(c *Config) { c.ECmdWriteJ = -1e-6 }, "ECmdWriteJ"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mod(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// Transition draws at the idle floor add nothing and are valid.
	atFloor := testConfig()
	standbyAt(&atFloor, 1.5, 1.5)
	if err := atFloor.Validate(); err != nil {
		t.Fatalf("standby transitions at the idle floor rejected: %v", err)
	}
	if good.Dies() != 8 {
		t.Errorf("Dies() = %d, want 8", good.Dies())
	}
	if got := good.IdleFloorW(); got != 1.5 {
		t.Errorf("IdleFloorW() = %v, want 1.5", got)
	}
}

func TestReadCompletes(t *testing.T) {
	d, eng := newTest(t, nil)
	done := false
	d.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 4096}, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("read never completed")
	}
	// Latency ≈ cmd + tRead + page xfer + link: order 80 µs.
	if now := eng.Now(); now < 50*time.Microsecond || now > 200*time.Microsecond {
		t.Errorf("4KiB read took %v, want ~80µs", now)
	}
}

func TestWriteCompletesBeforeNANDDrain(t *testing.T) {
	d, eng := newTest(t, nil)
	var ackAt time.Duration
	d.Submit(device.Request{Op: device.OpWrite, Offset: 0, Size: 64 << 10}, func() { ackAt = eng.Now() })
	eng.Run()
	if ackAt == 0 {
		t.Fatal("write never acknowledged")
	}
	// Buffered ack: link (64µs) + insert ≈ 85µs, well before the 500µs program.
	if ackAt > 300*time.Microsecond {
		t.Errorf("buffered write acked at %v, want ~90µs", ackAt)
	}
	// The drain continues past the ack; the engine ran events after it.
	if eng.Now() <= ackAt {
		t.Error("no background drain happened after ack")
	}
}

func TestLargeReadFansOutAcrossDies(t *testing.T) {
	d, eng := newTest(t, nil)
	// 8 pages across 8 dies: one tRead wave, not eight serialized.
	done := false
	d.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 128 << 10}, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("read never completed")
	}
	// Serialized would take ≥ 8×70µs = 560µs; parallel ≈ 70µs + link 131µs.
	if eng.Now() > 400*time.Microsecond {
		t.Errorf("128KiB read took %v; die fan-out broken", eng.Now())
	}
}

func TestBufferBackpressure(t *testing.T) {
	d, eng := newTest(t, func(c *Config) {
		c.BufferBytes = 4 << 20
		c.PowerStates = nil // uncapped: isolate buffer behavior
	})
	// Submit 3× 2 MiB: the third must wait for drain space.
	acks := make([]time.Duration, 3)
	for i := 0; i < 3; i++ {
		i := i
		d.Submit(device.Request{Op: device.OpWrite, Offset: int64(i) << 21, Size: 2 << 20}, func() { acks[i] = eng.Now() })
	}
	eng.Run()
	for i, a := range acks {
		if a == 0 {
			t.Fatalf("write %d never acked", i)
		}
	}
	// First two fit the buffer (ack at link speed ≈ 2.1 ms and 4.2 ms);
	// the third waits for page programs to release space.
	if acks[2] < acks[1]+time.Millisecond {
		t.Errorf("third write acked at %v, second at %v; no backpressure", acks[2], acks[1])
	}
}

func TestPowerStateCapThrottlesWrites(t *testing.T) {
	run := func(ps int) time.Duration {
		d, eng := newTest(t, nil)
		if err := d.SetPowerState(ps); err != nil {
			t.Fatal(err)
		}
		const n = 64
		remaining := n
		var issue func(i int)
		issue = func(i int) {
			if i >= n {
				return
			}
			d.Submit(device.Request{Op: device.OpWrite, Offset: int64(i) << 20, Size: 1 << 20}, func() {
				remaining--
				issue(i + 1)
			})
		}
		issue(0)
		eng.Run()
		if remaining != 0 {
			t.Fatalf("%d writes never completed under ps%d", remaining, ps)
		}
		return eng.Now()
	}
	fast := run(0)
	slow := run(1)
	// ps1 leaves 0.2 W of headroom; the NAND energy rate at full speed
	// is ~0.34 W, so the regulator must stretch the run by ~1.7x.
	if float64(slow) < 1.4*float64(fast) {
		t.Errorf("ps1 run %v not much slower than ps0 run %v", slow, fast)
	}
}

func TestPowerStateErrors(t *testing.T) {
	d, _ := newTest(t, nil)
	if err := d.SetPowerState(5); err == nil {
		t.Error("out-of-range power state accepted")
	}
	if err := d.SetPowerState(-1); err == nil {
		t.Error("negative power state accepted")
	}
	d2, _ := newTest(t, func(c *Config) { c.PowerStates = nil; c.Protocol = device.SATA })
	if err := d2.SetPowerState(0); err != device.ErrNotSupported {
		t.Errorf("stateless device SetPowerState = %v, want ErrNotSupported", err)
	}
}

func TestStandbyNotSupportedByDefault(t *testing.T) {
	d, _ := newTest(t, nil)
	if err := d.EnterStandby(); err != device.ErrNotSupported {
		t.Errorf("EnterStandby = %v, want ErrNotSupported", err)
	}
	if err := d.Wake(); err != device.ErrNotSupported {
		t.Errorf("Wake = %v, want ErrNotSupported", err)
	}
	if !d.Settled() {
		t.Error("device without standby not settled")
	}
}

func withStandby(c *Config) {
	c.PowerStates = nil
	c.Protocol = device.SATA
	c.HasStandby = true
	c.PSlumber = 0.3
	c.StandbyEnter = 100 * time.Millisecond
	c.StandbyExit = 200 * time.Millisecond
	c.PStandbyEnter = 2.0
	c.PStandbyExit = 2.2
}

func TestStandbyLifecycle(t *testing.T) {
	d, eng := newTest(t, withStandby)
	if err := d.EnterStandby(); err != nil {
		t.Fatal(err)
	}
	if !d.Standby() || d.Settled() {
		t.Error("entering: Standby/Settled flags wrong")
	}
	// During entry, the transition blip raises power.
	if p := d.InstantPower(); math.Abs(p-2.0) > 1e-9 {
		t.Errorf("entry power = %v, want 2.0 (blip)", p)
	}
	eng.RunUntil(time.Second)
	if !d.Standby() || !d.Settled() {
		t.Error("in standby: flags wrong")
	}
	if p := d.InstantPower(); math.Abs(p-0.3) > 1e-9 {
		t.Errorf("slumber power = %v, want 0.3", p)
	}
	if err := d.Wake(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second)
	if d.Standby() || !d.Settled() {
		t.Error("awake: flags wrong")
	}
	if p := d.InstantPower(); math.Abs(p-1.5) > 1e-9 {
		t.Errorf("idle power = %v, want 1.5", p)
	}
}

func TestIOWakesStandbyDevice(t *testing.T) {
	d, eng := newTest(t, withStandby)
	d.EnterStandby()
	eng.RunUntil(time.Second)
	done := false
	d.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 4096}, func() { done = true })
	eng.RunUntil(2 * time.Second)
	if !done {
		t.Fatal("IO to standby device never completed")
	}
	if d.Standby() {
		t.Error("device still in standby after serving IO")
	}
}

func TestIODuringEntryTransitionCompletes(t *testing.T) {
	d, eng := newTest(t, withStandby)
	d.EnterStandby()
	eng.RunUntil(50 * time.Millisecond) // mid-entry
	done := false
	d.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 4096}, func() { done = true })
	eng.RunUntil(2 * time.Second)
	if !done {
		t.Fatal("IO during entry transition never completed")
	}
}

func TestWakeDuringEntryCoalesces(t *testing.T) {
	d, eng := newTest(t, withStandby)
	d.EnterStandby()
	eng.RunUntil(10 * time.Millisecond)
	d.Wake()
	d.Wake() // idempotent
	eng.RunUntil(2 * time.Second)
	if d.Standby() || !d.Settled() {
		t.Error("wake during entry did not restore awake state")
	}
}

func TestSubmitPanics(t *testing.T) {
	d, _ := newTest(t, nil)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"unaligned", func() { d.Submit(device.Request{Op: device.OpRead, Offset: 3, Size: 512}, func() {}) }},
		{"past end", func() { d.Submit(device.Request{Op: device.OpRead, Offset: 1 << 30, Size: 512}, func() {}) }},
		{"nil done", func() { d.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 512}, nil) }},
		{"bigger than buffer", func() {
			d.Submit(device.Request{Op: device.OpWrite, Offset: 0, Size: 16 << 20}, func() {})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestCoalescingSubPageWrites(t *testing.T) {
	// Four 4 KiB writes fill exactly one 16 KiB page: total NAND energy
	// must be one page program, not four.
	d, eng := newTest(t, func(c *Config) { c.PowerStates = nil })
	for i := 0; i < 4; i++ {
		d.Submit(device.Request{Op: device.OpWrite, Offset: int64(i) * 4096, Size: 4096}, func() {})
	}
	eng.Run()
	// Energy above idle: 1 page program + 4 cmd + link + insert overheads.
	idleE := 1.5 * eng.Now().Seconds()
	extra := d.EnergyJ() - idleE
	oneProg := d.eProg
	if extra > 3*oneProg {
		t.Errorf("4×4KiB writes burned %.1fµJ beyond idle, want ≈ 1 page (%.1fµJ) + overheads",
			extra*1e6, oneProg*1e6)
	}
}

func TestPartialPageFlushQuiesces(t *testing.T) {
	// A lone 4 KiB write must still reach NAND (flush timer) and the
	// buffer must fully drain so the device quiesces.
	d, eng := newTest(t, func(c *Config) { c.PowerStates = nil })
	d.Submit(device.Request{Op: device.OpWrite, Offset: 0, Size: 4096}, func() {})
	eng.Run()
	if d.bufUsedBytes() != 0 {
		t.Errorf("buffer holds %d bytes after quiesce, want 0", d.bufUsedBytes())
	}
	if d.active() {
		t.Error("device still active after flush")
	}
	if eng.Pending() != 0 {
		t.Errorf("%d events pending after drain", eng.Pending())
	}
}

func TestWriteAmpAddsInternalWork(t *testing.T) {
	energy := func(amp float64) float64 {
		cfg := testConfig()
		cfg.PowerStates = nil
		cfg.WriteAmp = amp
		eng := sim.NewEngine()
		d, err := New(&cfg, cfg.Name, eng, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		// Random (non-sequential) writes: offsets descending.
		for i := 15; i >= 0; i-- {
			d.Submit(device.Request{Op: device.OpWrite, Offset: int64(i) << 20, Size: 64 << 10}, func() {})
		}
		eng.Run()
		return d.EnergyJ() - 1.5*eng.Now().Seconds()
	}
	base := energy(1.0)
	amped := energy(1.5)
	if amped < base*1.2 {
		t.Errorf("write amp 1.5 energy %.1fµJ not ≫ amp 1.0 energy %.1fµJ", amped*1e6, base*1e6)
	}
}

func TestSequentialWritesSkipAmp(t *testing.T) {
	cfg := testConfig()
	cfg.PowerStates = nil
	cfg.WriteAmp = 2.0
	eng := sim.NewEngine()
	d, err := New(&cfg, cfg.Name, eng, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// Perfectly sequential stream: no amplification work.
	for i := 0; i < 16; i++ {
		d.Submit(device.Request{Op: device.OpWrite, Offset: int64(i) * 64 << 10, Size: 64 << 10}, func() {})
	}
	eng.Run()
	progs := d.EnergyJ() - 1.5*eng.Now().Seconds()
	// 16×64KiB = 64 pages of program energy plus ~25 page-equivalents
	// of link/cmd overhead; amplification at 2.0 would add another 64.
	if progs > 110*d.eProg {
		t.Errorf("sequential stream burned %.0f page-equivalents, amp not skipped", progs/d.eProg)
	}
}

// Property: any mix of aligned reads and writes completes exactly once
// each, and the device quiesces with an empty buffer.
func TestAllIOCompletesProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := testConfig()
		eng := sim.NewEngine()
		d, err := New(&cfg, cfg.Name, eng, sim.NewRNG(7))
		if err != nil {
			return false
		}
		want := len(ops)
		got := 0
		for _, o := range ops {
			op := device.OpRead
			if o&1 == 1 {
				op = device.OpWrite
			}
			size := int64(512 * (1 + o%64))
			off := int64(o) * 4096 % (cfg.CapacityBytes - 64*512)
			off -= off % 512
			d.Submit(device.Request{Op: op, Offset: off, Size: size}, func() { got++ })
		}
		eng.Run()
		return got == want && d.bufUsedBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceMetadata(t *testing.T) {
	d, _ := newTest(t, nil)
	if d.Name() != "T1" || d.Model() != "Test SSD" || d.Protocol() != device.NVMe {
		t.Error("metadata accessors wrong")
	}
	if d.CapacityBytes() != 1<<30 {
		t.Error("capacity wrong")
	}
	if len(d.PowerStates()) != 2 {
		t.Error("power states wrong")
	}
	if d.Config().Name != "T1" {
		t.Error("Config() wrong")
	}
}
