package invariant

import (
	"strings"
	"testing"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

// stepUntil advances the engine to at least the given virtual time.
// (Engine.Run would never return while a probe keeps rescheduling.)
func stepUntil(t *testing.T, eng *sim.Engine, until time.Duration) {
	t.Helper()
	for eng.Now() < until {
		if !eng.Step() {
			t.Fatalf("engine drained at t=%v, wanted %v", eng.Now(), until)
		}
	}
}

// constSource is a fake device drawing a fixed wattage, with exact
// energy accounting, for probe-math unit tests.
type constSource struct {
	eng *sim.Engine
	w   float64
}

func (s *constSource) InstantPower() float64 { return s.w }
func (s *constSource) EnergyJ() float64      { return s.w * s.eng.Now().Seconds() }
func (s *constSource) EnergyComponents() ([]string, []float64) {
	return []string{"all"}, []float64{s.EnergyJ()}
}

// lyingSource claims twice the energy its power draw implies — the kind
// of bookkeeping bug the energy probe exists to catch.
type lyingSource struct{ constSource }

func (s *lyingSource) EnergyJ() float64 { return 2 * s.constSource.EnergyJ() }
func (s *lyingSource) EnergyComponents() ([]string, []float64) {
	return []string{"all"}, []float64{s.EnergyJ()}
}

func TestEnergyProbeExactOnConstantSource(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	src := &constSource{eng: eng, w: 5}
	p := AttachEnergy(eng, src, time.Millisecond)
	stepUntil(t, eng, 2*time.Second)
	p.Stop()
	if err := p.Check(1e-9); err != nil {
		t.Fatalf("constant 5 W source failed conservation: %v", err)
	}
	if got := p.integral; got < 9.99 || got > 10.01 {
		t.Errorf("integral %v J, want ~10", got)
	}
}

func TestEnergyProbeCatchesBadAccounting(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	src := &lyingSource{constSource{eng: eng, w: 5}}
	p := AttachEnergy(eng, src, time.Millisecond)
	stepUntil(t, eng, time.Second)
	p.Stop()
	err := p.Check(0.05)
	if err == nil {
		t.Fatal("probe accepted a source that double-counts energy")
	}
	if !strings.Contains(err.Error(), "not conserved") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestCapProbeMathAndViolation(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	src := &constSource{eng: eng, w: 5}
	p := AttachCap(eng, src, 4, time.Second, 10*time.Millisecond)
	stepUntil(t, eng, 3*time.Second)
	p.Stop()
	if got := p.WorstWindowW(); got < 4.99 || got > 5.02 {
		t.Errorf("worst window %v W, want ~5", got)
	}
	if err := p.Check(0); err == nil {
		t.Error("5 W source passed a 4 W cap")
	}
	if err := p.Check(0.3); err != nil { // 4 W × 1.3 = 5.2 W budget
		t.Errorf("5 W source failed a 5.2 W budget: %v", err)
	}
}

// rampSource draws a power that rises with virtual time and logs every
// energy reading, so a test can replay what a probe saw.
type rampSource struct {
	eng *sim.Engine
	ts  []time.Duration
	es  []float64
}

func (s *rampSource) EnergyJ() float64 {
	t := s.eng.Now().Seconds()
	e := 5*t + 0.05*t*t
	s.ts, s.es = append(s.ts, s.eng.Now()), append(s.es, e)
	return e
}

// TestCapProbeKeepsOnlyLiveWindow: the probe keeps only the checkpoints
// a later window can read, yet over a long run its worst window and the
// instant it ends equal, after every sample, those of a reference that
// keeps every checkpoint. The draw rises, so nearly every sample ends a
// new worst window, and a window read from a wrong checkpoint shows.
func TestCapProbeKeepsOnlyLiveWindow(t *testing.T) {
	t.Parallel()
	const window, every = time.Second, 10 * time.Millisecond
	eng := sim.NewEngine()
	src := &rampSource{eng: eng}
	p := AttachCap(eng, src, 4, window, every)

	// The reference keeps every reading, the one at attach first, and
	// takes each window from the newest checkpoint at or before its left
	// edge.
	var worstW float64
	var worstAt time.Duration
	left, seen, maxKept := 0, 1, 0
	check := func() {
		for ; seen < len(src.ts); seen++ {
			for left+1 < len(src.ts) && src.ts[left+1] <= src.ts[seen]-window {
				left++
			}
			// Energies relative to the reading at attach, as the probe
			// keeps them, so the two round alike.
			if avg := ((src.es[seen] - src.es[0]) - (src.es[left] - src.es[0])) / window.Seconds(); avg > worstW {
				worstW, worstAt = avg, src.ts[seen]
			}
		}
		if p.WorstWindowW() != worstW || p.worstAt != worstAt {
			t.Fatalf("at %v: probe worst %v W at %v, full history %v W at %v",
				eng.Now(), p.WorstWindowW(), p.worstAt, worstW, worstAt)
		}
		maxKept = max(maxKept, len(p.ts))
	}
	for eng.Now() < 60*time.Second && eng.Step() {
		check()
	}
	p.Stop()
	check()
	if lim := 2*int(window/every) + 4; maxKept > lim {
		t.Fatalf("probe kept %d checkpoints, want at most %d for a %v window sampled every %v", maxKept, lim, window, every)
	}
	if len(src.ts) < 10*maxKept {
		t.Fatalf("run too short to test the ring: %d samples, %d kept", len(src.ts), maxKept)
	}
}

// TestSSDInvariants runs the paper's capped device (SSD2 at ps2, its
// most-throttled state) under a sustained sequential write long enough
// to cover full 10 s cap windows, with both probes attached.
func TestSSDInvariants(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("12 s virtual run")
	}
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	dev := catalog.NewSSD2(eng, rng)
	if err := dev.SetPowerState(2); err != nil {
		t.Fatal(err)
	}
	capW := dev.PowerStates()[2].MaxPowerW
	window := catalog.SSD2Config().CapWindow

	energy := AttachEnergy(eng, dev, 250*time.Microsecond)
	cap := AttachCap(eng, dev, capW, window, 10*time.Millisecond)
	workload.Run(eng, dev, workload.Job{
		Op: device.OpWrite, Pattern: workload.Seq, BS: 256 << 10, Depth: 64,
		Runtime: 12 * time.Second,
	}, rng)
	energy.Stop()
	cap.Stop()

	if err := energy.Check(0.05); err != nil {
		t.Error(err)
	}
	// Ripple, interface activation, and transition energy are real draw
	// but outside the regulator, as on real devices; give the cap the
	// same headroom the calibration tests allow (10.5 W on a 10 W cap).
	if err := cap.Check(0.05); err != nil {
		t.Error(err)
	}
	t.Logf("integral %.1f J, accounted %.1f J, worst %v window %.2f W (cap %.0f W)",
		energy.integral, dev.EnergyJ(), window, cap.WorstWindowW(), capW)
}

// TestHDDInvariants runs the catalog HDD under mixed random IO with the
// energy probe and a power-envelope cap probe (the HDD has no NVMe cap;
// its invariant is the nameplate envelope: spindle + electronics + seek
// + transfer + interface).
func TestHDDInvariants(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(11)
	dev := catalog.NewHDD(eng, rng)
	cfg := catalog.HDDConfig()
	envelopeW := cfg.PSpindle + cfg.PElec + cfg.PSeek + cfg.PXfer + cfg.PIfaceAct

	energy := AttachEnergy(eng, dev, 200*time.Microsecond)
	cap := AttachCap(eng, dev, envelopeW, time.Second, 5*time.Millisecond)
	workload.Run(eng, dev, workload.Job{
		Op: device.OpRead, Pattern: workload.Rand, BS: 64 << 10, Depth: 4,
		Runtime: 5 * time.Second,
	}, rng)
	energy.Stop()
	cap.Stop()

	if err := energy.Check(0.05); err != nil {
		t.Error(err)
	}
	if err := cap.Check(0); err != nil {
		t.Error(err)
	}
	t.Logf("integral %.1f J, accounted %.1f J, worst 1 s window %.2f W (envelope %.2f W)",
		energy.integral, dev.EnergyJ(), cap.WorstWindowW(), envelopeW)
}
