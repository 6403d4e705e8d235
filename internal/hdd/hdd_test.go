package hdd

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"wattio/internal/device"
	"wattio/internal/sim"
)

func testConfig() Config {
	return Config{
		Name:          "H1",
		Model:         "Test HDD",
		CapacityBytes: 1 << 34, // 16 GiB keeps seek math meaningful

		RPM:        7200,
		SeekBase:   time.Millisecond,
		SeekFull:   14 * time.Millisecond,
		MediaOuter: 200,
		MediaInner: 100,

		LinkMBps:   550,
		CmdTime:    50 * time.Microsecond,
		CacheBytes: 8 << 20,

		PSpindle:  3.0,
		PElec:     0.7,
		PSeek:     2.0,
		PXfer:     0.3,
		PIfaceAct: 0.1,

		PStandby:  1.0,
		PSpinDown: 2.0,
		PSpinUp:   5.5,
		TSpinDown: time.Second,
		TSpinUp:   5 * time.Second,
	}
}

func newTest(t *testing.T, mod func(*Config)) (*HDD, *sim.Engine) {
	t.Helper()
	cfg := testConfig()
	if mod != nil {
		mod(&cfg)
	}
	eng := sim.NewEngine()
	d, err := New(&cfg, cfg.Name, eng, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	return d, eng
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
		want string
	}{
		{"no name", func(c *Config) { c.Name = "" }, "name"},
		{"zero capacity", func(c *Config) { c.CapacityBytes = 0 }, "capacity"},
		{"zero rpm", func(c *Config) { c.RPM = 0 }, "RPM"},
		{"inner above outer", func(c *Config) { c.MediaInner = 300 }, "media"},
		{"zero link", func(c *Config) { c.LinkMBps = 0 }, "link"},
		{"tiny cache", func(c *Config) { c.CacheBytes = 1000 }, "cache"},
		{"no spindle power", func(c *Config) { c.PSpindle = 0 }, "base powers"},
		{"instant spin", func(c *Config) { c.TSpinUp = 0 }, "transitions"},
		{"spin-down below electronics", func(c *Config) { c.PSpinDown = 0.5 }, "PSpinDown"},
		{"spin-up below electronics", func(c *Config) { c.PSpinUp = 0.5 }, "PSpinUp"},
		{"negative seek", func(c *Config) { c.PSeek = -1 }, "PSeek"},
		{"negative media transfer", func(c *Config) { c.PXfer = -0.1 }, "PXfer"},
		{"negative interface", func(c *Config) { c.PIfaceAct = -0.1 }, "PIfaceAct"},
		{"negative standby", func(c *Config) { c.PStandby = -0.1 }, "PStandby"},
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
}

func TestIdlePowerIsSpindlePlusElectronics(t *testing.T) {
	d, _ := newTest(t, nil)
	if got := d.InstantPower(); math.Abs(got-3.7) > 1e-9 {
		t.Fatalf("idle power = %v, want 3.7", got)
	}
}

func TestReadLatencyIncludesPositioning(t *testing.T) {
	d, eng := newTest(t, nil)
	done := false
	// Far-away offset: seek + rotation dominate.
	d.Submit(device.Request{Op: device.OpRead, Offset: 1 << 33, Size: 4096}, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("read never completed")
	}
	// Seek ~1+14·sqrt(0.5)≈10.9ms, rotation 0-8.3ms: total 11-20ms.
	if eng.Now() < 9*time.Millisecond || eng.Now() > 25*time.Millisecond {
		t.Errorf("random read took %v, want positioning-dominated 11-20ms", eng.Now())
	}
}

func TestSequentialStreamSkipsPositioning(t *testing.T) {
	d, eng := newTest(t, nil)
	// 16 MiB of contiguous reads at the outer zone: ~200 MB/s.
	const n = 16
	remaining := n
	var issue func(i int)
	issue = func(i int) {
		if i >= n {
			return
		}
		d.Submit(device.Request{Op: device.OpRead, Offset: int64(i) << 20, Size: 1 << 20}, func() {
			remaining--
			issue(i + 1)
		})
	}
	issue(0)
	eng.Run()
	if remaining != 0 {
		t.Fatal("sequential reads incomplete")
	}
	rate := 16.0 / eng.Now().Seconds() // MiB/s
	if rate < 130 || rate > 210 {      // qd1 serializes media and link; qd>1 reaches ~200
		t.Errorf("sequential read rate %.0f MiB/s, want ≈ 190 (one positioning, then streaming)", rate)
	}
}

func TestWriteCacheAcksFast(t *testing.T) {
	d, eng := newTest(t, nil)
	var ackAt time.Duration
	d.Submit(device.Request{Op: device.OpWrite, Offset: 1 << 33, Size: 64 << 10}, func() { ackAt = eng.Now() })
	eng.Run()
	if ackAt == 0 {
		t.Fatal("write never acked")
	}
	// Cache ack: cmd 50µs + link 119µs ≈ 170µs, far below positioning.
	if ackAt > time.Millisecond {
		t.Errorf("cached write acked at %v, want ~0.2ms", ackAt)
	}
	if d.dirty != 0 {
		t.Errorf("dirty bytes %d after drain", d.dirty)
	}
}

func TestWriteCacheBackpressure(t *testing.T) {
	d, eng := newTest(t, func(c *Config) { c.CacheBytes = 1 << 20 })
	// 4× 512 KiB random writes: the cache holds two; later ones wait
	// for drains that each take ~10ms of positioning.
	acks := make([]time.Duration, 4)
	for i := 0; i < 4; i++ {
		i := i
		off := int64(3-i) << 32
		d.Submit(device.Request{Op: device.OpWrite, Offset: off, Size: 512 << 10}, func() { acks[i] = eng.Now() })
	}
	eng.Run()
	if acks[3] < 5*time.Millisecond {
		t.Errorf("fourth write acked at %v; cache backpressure missing", acks[3])
	}
	if d.dirty != 0 {
		t.Error("cache not fully drained at quiesce")
	}
}

func TestNCQPrefersNearestAccess(t *testing.T) {
	d, eng := newTest(t, nil)
	// Enqueue a far read and a near read while the head is busy; the
	// near one should finish first despite being submitted second.
	order := []string{}
	d.Submit(device.Request{Op: device.OpRead, Offset: 1 << 30, Size: 4096}, func() { order = append(order, "first") })
	d.Submit(device.Request{Op: device.OpRead, Offset: 1 << 33, Size: 4096}, func() { order = append(order, "far") })
	d.Submit(device.Request{Op: device.OpRead, Offset: 1<<30 + 8192, Size: 4096}, func() { order = append(order, "near") })
	eng.Run()
	if len(order) != 3 {
		t.Fatalf("completed %d reads", len(order))
	}
	if order[1] != "near" {
		t.Errorf("completion order %v; NCQ should serve the near request second", order)
	}
}

func TestSpinDownAndUp(t *testing.T) {
	d, eng := newTest(t, nil)
	if err := d.EnterStandby(); err != nil {
		t.Fatal(err)
	}
	if !d.Standby() {
		t.Error("Standby() false right after EnterStandby")
	}
	eng.RunUntil(3 * time.Second)
	if !d.Settled() {
		t.Error("not settled after spin-down window")
	}
	if got := d.InstantPower(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("spun-down power = %v, want 1.0", got)
	}
	wakeAt := eng.Now()
	if err := d.Wake(); err != nil {
		t.Fatal(err)
	}
	// During spin-up the motor draws heavily.
	eng.RunUntil(wakeAt + time.Second)
	if got := d.InstantPower(); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("spin-up power = %v, want 5.5", got)
	}
	eng.RunUntil(wakeAt + 6*time.Second)
	if d.Standby() || !d.Settled() {
		t.Error("not awake after spin-up")
	}
	if got := d.InstantPower(); math.Abs(got-3.7) > 1e-9 {
		t.Errorf("idle power after wake = %v, want 3.7", got)
	}
}

func TestIOWakesSpunDownDisk(t *testing.T) {
	d, eng := newTest(t, nil)
	d.EnterStandby()
	eng.RunUntil(3 * time.Second)
	done := false
	start := eng.Now()
	d.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 4096}, func() { done = true })
	eng.RunUntil(start + 10*time.Second)
	if !done {
		t.Fatal("IO to spun-down disk never completed")
	}
}

func TestStandbyFlushesDirtyCacheFirst(t *testing.T) {
	d, eng := newTest(t, nil)
	acked := 0
	for i := 0; i < 4; i++ {
		d.Submit(device.Request{Op: device.OpWrite, Offset: int64(i) << 32, Size: 64 << 10}, func() { acked++ })
	}
	eng.RunUntil(2 * time.Millisecond) // writes acked into cache, drains pending
	if d.dirty == 0 {
		t.Fatal("test setup: cache already drained")
	}
	if err := d.EnterStandby(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + 10*time.Second)
	if d.dirty != 0 {
		t.Error("spin-down left dirty data in cache")
	}
	if !d.Settled() || !d.Standby() {
		t.Error("disk did not reach standby after flush")
	}
}

func TestIODuringFlushAbortsStandby(t *testing.T) {
	d, eng := newTest(t, nil)
	for i := 0; i < 4; i++ {
		d.Submit(device.Request{Op: device.OpWrite, Offset: int64(i) << 32, Size: 64 << 10}, func() {})
	}
	eng.RunUntil(2 * time.Millisecond)
	d.EnterStandby() // begins flushing
	done := false
	d.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 4096}, func() { done = true })
	eng.RunUntil(eng.Now() + 5*time.Second)
	if !done {
		t.Fatal("IO during flush never completed")
	}
	if d.Standby() {
		t.Error("standby not aborted by new IO")
	}
}

func TestSeekPowerVisibleDuringSeek(t *testing.T) {
	d, eng := newTest(t, nil)
	d.Submit(device.Request{Op: device.OpRead, Offset: 1 << 33, Size: 4096}, func() {})
	eng.RunUntil(2 * time.Millisecond) // inside the ~11ms seek
	if got := d.InstantPower(); math.Abs(got-5.7) > 1e-9 {
		t.Errorf("power during seek = %v, want 5.7 (spindle+elec+seek)", got)
	}
	eng.Run()
	if got := d.InstantPower(); math.Abs(got-3.7) > 1e-9 {
		t.Errorf("power after IO = %v, want 3.7", got)
	}
}

func TestZonedMediaRate(t *testing.T) {
	d, _ := newTest(t, nil)
	outer := d.mediaTime(0, 1<<20)
	inner := d.mediaTime(d.cfg.CapacityBytes-1<<20, 1<<20)
	if outer >= inner {
		t.Errorf("outer transfer %v not faster than inner %v", outer, inner)
	}
	ratio := float64(inner) / float64(outer)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("inner/outer time ratio %.2f, want ≈ 2 (200 vs 100 MB/s)", ratio)
	}
}

func TestSubmitPanics(t *testing.T) {
	d, _ := newTest(t, nil)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"unaligned", func() { d.Submit(device.Request{Op: device.OpRead, Offset: 7, Size: 512}, func() {}) }},
		{"nil done", func() { d.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 512}, nil) }},
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

func TestDeviceSurface(t *testing.T) {
	d, _ := newTest(t, nil)
	if d.Protocol() != device.SATA {
		t.Error("HDD protocol not SATA")
	}
	if d.PowerStates() != nil {
		t.Error("HDD claims power states")
	}
	if err := d.SetPowerState(1); err != device.ErrNotSupported {
		t.Errorf("SetPowerState = %v, want ErrNotSupported", err)
	}
	if d.PowerStateIndex() != 0 {
		t.Error("PowerStateIndex != 0")
	}
	if d.Name() != "H1" || d.Model() != "Test HDD" {
		t.Error("metadata wrong")
	}
	if d.Config().RPM != 7200 {
		t.Error("Config() wrong")
	}
}

// Property: every submitted IO completes exactly once and the cache
// fully drains, regardless of interleaving.
func TestAllIOCompletesProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := testConfig()
		eng := sim.NewEngine()
		d, err := New(&cfg, cfg.Name, eng, sim.NewRNG(11))
		if err != nil {
			return false
		}
		got := 0
		for _, o := range ops {
			op := device.OpRead
			if o&1 == 1 {
				op = device.OpWrite
			}
			size := int64(512 * (1 + o%32))
			off := (int64(o) << 20) % (cfg.CapacityBytes - 32*512)
			off -= off % 512
			d.Submit(device.Request{Op: op, Offset: off, Size: size}, func() { got++ })
		}
		eng.Run()
		return got == len(ops) && d.dirty == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy is the time integral of a power signal that never
// goes below standby level or above the sum of all components.
func TestPowerBoundsProperty(t *testing.T) {
	d, eng := newTest(t, nil)
	maxW := d.cfg.PSpindle + d.cfg.PElec + d.cfg.PSeek + d.cfg.PXfer + d.cfg.PIfaceAct
	for i := 0; i < 50; i++ {
		off := (int64(i*7919) << 20) % (d.cfg.CapacityBytes - 4096)
		off -= off % 512
		d.Submit(device.Request{Op: device.OpRead, Offset: off, Size: 4096}, func() {})
	}
	for eng.Step() {
		p := d.InstantPower()
		if p < d.cfg.PStandby-1e-9 || p > maxW+1e-9 {
			t.Fatalf("power %v outside [%v, %v]", p, d.cfg.PStandby, maxW)
		}
	}
}
