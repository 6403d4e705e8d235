package fault

import (
	"errors"
	"testing"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/telemetry"
	"wattio/internal/workload"
)

// newFaulted wraps a fresh SSD2 in a fault device on an engine with its
// own metrics registry; the fault RNG stream is derived from the same
// root so runs are reproducible.
func newFaulted(t *testing.T, p Profile) (*Device, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	eng.EnableTelemetry(telemetry.NewRegistry(), nil)
	rng := sim.NewRNG(7)
	inner := catalog.NewSSD2(eng, rng.Stream("dev"))
	d, err := New(inner, eng, rng.Stream("fault"), p)
	if err != nil {
		t.Fatal(err)
	}
	return d, eng
}

// count reads one of the fault counters newFaulted's engine collects.
func count(eng *sim.Engine, name string) int64 { return eng.Metrics().Counter(name).Value() }

// oneIO submits a single 4 KiB read and drains the engine until it
// completes, returning the completion latency.
func oneIO(eng *sim.Engine, d device.Device) time.Duration {
	start := eng.Now()
	done := false
	d.Submit(device.Request{Op: device.OpRead, Offset: 1 << 30, Size: 4096}, func() { done = true })
	for !done && eng.Step() {
	}
	return eng.Now() - start
}

func TestEmptyProfileTransparent(t *testing.T) {
	t.Parallel()
	// The same workload with the same seeds must produce identical
	// completions and energy whether or not the (empty) wrapper is
	// in the path — the chaos plumbing must be happy-path neutral.
	run := func(wrap bool) (int64, time.Duration, float64) {
		eng := sim.NewEngine()
		rng := sim.NewRNG(99)
		var dev device.Device = catalog.NewSSD2(eng, rng.Stream("dev"))
		if wrap {
			f, err := New(dev, eng, rng.Stream("fault"), Profile{})
			if err != nil {
				t.Fatal(err)
			}
			dev = f
		}
		res := workload.Run(eng, dev, workload.Job{
			Op: device.OpWrite, Pattern: workload.Rand, BS: 256 << 10, Depth: 32,
			Runtime: 300 * time.Millisecond,
		}, rng.Stream("wl"))
		return res.IOs, eng.Now(), dev.EnergyJ()
	}
	ios0, now0, e0 := run(false)
	ios1, now1, e1 := run(true)
	if ios0 != ios1 || now0 != now1 || e0 != e1 {
		t.Errorf("empty profile not transparent: IOs %d vs %d, end %v vs %v, energy %v vs %v",
			ios0, ios1, now0, now1, e0, e1)
	}
}

func TestIOErrorRetriesAreLatency(t *testing.T) {
	t.Parallel()
	// Prob 1 with the default MaxRetries=3 and RetryPenalty=500 µs
	// means every IO inside the window pays exactly 1.5 ms extra.
	d, eng := newFaulted(t, Profile{Windows: []Window{
		{Kind: IOError, Start: 0, Dur: 50 * time.Millisecond, Prob: 1},
	}})
	inside := oneIO(eng, d)
	eng.RunUntil(60 * time.Millisecond)
	outside := oneIO(eng, d)
	if got := inside - outside; got < 1400*time.Microsecond {
		t.Errorf("transient-error IO only %v slower, want ≈1.5 ms of retries", got)
	}
	if d.Retries() != 3 {
		t.Errorf("retries = %d, want 3 (MaxRetries at prob 1)", d.Retries())
	}
	if n := count(eng, "fault_injected_total"); n != 1 {
		t.Errorf("ioerror injections = %d, want 1 (per IO, not per retry)", n)
	}
}

func TestIOErrorDeterministicAcrossRuns(t *testing.T) {
	t.Parallel()
	run := func() (int, int64, time.Duration) {
		d, eng := newFaulted(t, Profile{Windows: []Window{
			{Kind: IOError, Start: 0, Dur: time.Second, Prob: 0.4},
		}})
		for i := 0; i < 100; i++ {
			oneIO(eng, d)
		}
		return d.Retries(), count(eng, "fault_injected_total"), eng.Now()
	}
	r0, n0, t0 := run()
	r1, n1, t1 := run()
	if r0 != r1 || n0 != n1 || t0 != t1 {
		t.Errorf("same seed diverged: retries %d vs %d, injected %d vs %d, end %v vs %v",
			r0, r1, n0, n1, t0, t1)
	}
	if r0 == 0 {
		t.Error("prob 0.4 over 100 IOs injected nothing")
	}
}

func TestPowerCmdWindows(t *testing.T) {
	t.Parallel()
	d, eng := newFaulted(t, Profile{Windows: []Window{
		{Kind: PowerCmdFail, Start: 0, Dur: 10 * time.Millisecond},
	}})
	if err := d.SetPowerState(1); !errors.Is(err, ErrCmdFail) || !errors.Is(err, ErrInjected) {
		t.Errorf("in-window SetPowerState = %v, want ErrCmdFail wrapping ErrInjected", err)
	}
	if d.PowerStateIndex() != 0 {
		t.Errorf("failed command changed state to %d", d.PowerStateIndex())
	}
	eng.RunUntil(15 * time.Millisecond)
	if err := d.SetPowerState(1); err != nil {
		t.Errorf("post-window SetPowerState failed: %v", err)
	}
	if d.PowerStateIndex() != 1 {
		t.Errorf("state = %d, want 1", d.PowerStateIndex())
	}
	if n := count(eng, "fault_cmd_failures_total"); n != 1 {
		t.Errorf("cmdfail injections = %d, want 1", n)
	}
}

func TestDropoutHoldsIOAndControl(t *testing.T) {
	t.Parallel()
	const winEnd = 50 * time.Millisecond
	d, eng := newFaulted(t, Profile{Windows: []Window{
		{Kind: Dropout, Start: 0, Dur: winEnd},
	}})
	if d.Healthy() {
		t.Error("Healthy() = true inside a dropout window")
	}
	if err := d.SetPowerState(1); !errors.Is(err, ErrUnavailable) {
		t.Errorf("SetPowerState during dropout = %v, want ErrUnavailable", err)
	}
	if err := d.EnterStandby(); !errors.Is(err, ErrUnavailable) {
		t.Errorf("EnterStandby during dropout = %v, want ErrUnavailable", err)
	}
	if err := d.Wake(); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Wake during dropout = %v, want ErrUnavailable", err)
	}

	done := false
	d.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 4096}, func() { done = true })
	if n := count(eng, "fault_dropout_held_total"); n != 1 {
		t.Errorf("held IOs = %d, want 1", n)
	}
	for !done && eng.Step() {
	}
	if !done {
		t.Fatal("held IO never completed")
	}
	if eng.Now() < winEnd {
		t.Errorf("held IO completed at %v, before the window end %v", eng.Now(), winEnd)
	}
	if !d.Healthy() {
		t.Error("Healthy() = false after the dropout window")
	}
}

func TestProfileValidation(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	inner := catalog.NewSSD2(eng, rng.Stream("dev"))
	bad := []Profile{
		{Windows: []Window{{Kind: Kind(99), Start: 0, Dur: time.Second}}},
		{Windows: []Window{{Kind: Dropout, Start: -time.Second, Dur: time.Second}}},
		{Windows: []Window{{Kind: Dropout, Start: 0, Dur: 0}}},
		{Windows: []Window{{Kind: IOError, Start: 0, Dur: time.Second, Prob: 1.5}}},
		{RetryPenalty: -time.Second},
		{MaxRetries: -1},
	}
	for i, p := range bad {
		if _, err := New(inner, eng, rng, p); err == nil {
			t.Errorf("profile %d accepted: %+v", i, p)
		}
	}
	// IOError windows draw from the RNG; a nil stream cannot be
	// deterministic, so construction must refuse it.
	p := Profile{Windows: []Window{{Kind: IOError, Start: 0, Dur: time.Second, Prob: 0.5}}}
	if _, err := New(inner, eng, nil, p); err == nil {
		t.Error("IOError window with nil RNG accepted")
	}
	if _, err := New(inner, eng, nil, Profile{}); err != nil {
		t.Errorf("empty profile with nil RNG rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	t.Parallel()
	want := map[Kind]string{
		IOError: "ioerror", PowerCmdFail: "cmdfail", Dropout: "dropout",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}
