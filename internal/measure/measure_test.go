package measure

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/sim"
)

func TestShuntOhmsLaw(t *testing.T) {
	s := NewShunt(0.1, 0, sim.NewRNG(1))
	if got := s.Volts(1.25); math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("V = %v, want 0.125", got)
	}
}

func TestShuntTolerance(t *testing.T) {
	s := NewShunt(0.1, 1000, sim.NewRNG(1)) // ±0.1%
	v := s.Volts(1)
	if v < 0.1*0.999 || v > 0.1*1.001 {
		t.Fatalf("shunt with 1000ppm tolerance gave %v for 1A", v)
	}
}

func TestShuntPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewShunt(0, 0, sim.NewRNG(1))
}

func TestAmplifierNoiseless(t *testing.T) {
	a := NewAmplifier(16, 0, 0, 0, sim.NewRNG(1))
	if got := a.Out(0.1); math.Abs(got-1.6) > 1e-12 {
		t.Fatalf("out = %v, want 1.6", got)
	}
}

func TestAmplifierNoiseStatistics(t *testing.T) {
	a := NewAmplifier(10, 0, 0, 0.01, sim.NewRNG(2))
	var sum, sq float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := a.Out(0.1) - 1.0
		sum += v
		sq += v * v
	}
	mean, rms := sum/n, math.Sqrt(sq/n)
	if math.Abs(mean) > 1e-3 {
		t.Errorf("noise mean = %v, want ≈ 0", mean)
	}
	if rms < 0.009 || rms > 0.011 {
		t.Errorf("noise rms = %v, want ≈ 0.01", rms)
	}
}

func TestADCRoundTrip(t *testing.T) {
	adc := NewADS1256()
	for _, v := range []float64{0, 0.001, 1.0, 2.4999, -1.3} {
		got := adc.Volts(adc.Code(v))
		if math.Abs(got-v) > adc.Volts(1) {
			t.Errorf("round trip of %vV gave %vV (LSB %v)", v, got, adc.Volts(1))
		}
	}
}

func TestADCClipping(t *testing.T) {
	adc := NewADS1256()
	hi := adc.Code(10)  // far above +FS
	lo := adc.Code(-10) // far below -FS
	if hi != 1<<23-1 {
		t.Errorf("positive clip code = %d, want %d", hi, 1<<23-1)
	}
	if lo != -(1 << 23) {
		t.Errorf("negative clip code = %d, want %d", lo, -(1 << 23))
	}
}

// Property: ADC quantization error never exceeds one LSB inside range.
func TestADCQuantizationProperty(t *testing.T) {
	adc := NewADS1256()
	f := func(raw float64) bool {
		v := math.Mod(math.Abs(raw), 2.49)
		return math.Abs(adc.Volts(adc.Code(v))-v) <= adc.Volts(1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	codes := []int32{0, 1, -1, 8388607, -8388608, 12345, -99999}
	wire := AppendFrame(nil, 42, codes)
	seq, got, n, err := DecodeFrameInto(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Errorf("consumed %d bytes, want %d", n, len(wire))
	}
	if seq != 42 {
		t.Errorf("seq = %d, want 42", seq)
	}
	if len(got) != len(codes) {
		t.Fatalf("decoded %d codes, want %d", len(got), len(codes))
	}
	for i := range codes {
		if got[i] != codes[i] {
			t.Errorf("code %d = %d, want %d", i, got[i], codes[i])
		}
	}
}

// Property: any in-range batch round-trips exactly.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(raw []int32, seq uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > maxFrameSamples {
			raw = raw[:maxFrameSamples]
		}
		codes := make([]int32, len(raw))
		for i, c := range raw {
			codes[i] = c % (1 << 23)
		}
		gotSeq, got, _, err := DecodeFrameInto(AppendFrame(nil, seq, codes), nil)
		if err != nil || gotSeq != seq {
			return false
		}
		for i := range codes {
			if got[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	wire := AppendFrame(nil, 7, []int32{100, -200, 300})
	for i := 2; i < len(wire); i++ { // skip sync word: flipping it is ErrBadSync
		bad := make([]byte, len(wire))
		copy(bad, wire)
		bad[i] ^= 0x40
		if _, _, _, err := DecodeFrameInto(bad, nil); err == nil {
			t.Errorf("corruption at byte %d went undetected", i)
		}
	}
}

func TestFrameBadSync(t *testing.T) {
	wire := AppendFrame(nil, 7, []int32{1})
	wire[0] = 0x00
	if _, _, _, err := DecodeFrameInto(wire, nil); err != ErrBadSync {
		t.Fatalf("err = %v, want ErrBadSync", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	wire := AppendFrame(nil, 7, []int32{1, 2, 3})
	if _, _, _, err := DecodeFrameInto(wire[:len(wire)-3], nil); err != ErrShortFrame {
		t.Fatalf("err = %v, want ErrShortFrame", err)
	}
}

func TestFrameEncodePanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codes []int32
	}{
		{"empty", nil},
		{"oversized batch", make([]int32, maxFrameSamples+1)},
		{"code too wide", []int32{1 << 23}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			AppendFrame(nil, 0, tc.codes)
		})
	}
}

// constSource is a dummy load of fixed wattage.
type constSource float64

func (c constSource) InstantPower() float64 { return float64(c) }

func TestRigAccuracyWithinOnePercent(t *testing.T) {
	// The paper claims < 1% relative error at millisecond sampling.
	// Verify across the operating range on both rails used.
	for _, tc := range []struct {
		railV float64
		watts []float64
	}{
		{12, []float64{3.5, 5.0, 8.19, 13.5, 15.1}},
		{5, []float64{0.35, 1.0, 3.5, 5.3}},
	} {
		for _, w := range tc.watts {
			eng := sim.NewEngine()
			rig := newRig(eng, sim.NewRNG(3), constSource(w), paperRig(tc.railV))
			rig.Start()
			eng.RunUntil(2 * time.Second)
			rig.Stop()
			got := rig.Trace().Mean()
			relErr := math.Abs(got-w) / w
			if relErr > 0.01 {
				t.Errorf("rail %v: measured %.4f W for %.4f W load (%.2f%% error)",
					tc.railV, got, w, relErr*100)
			}
		}
	}
}

func TestRigSamplePeriod(t *testing.T) {
	eng := sim.NewEngine()
	rig := newRig(eng, sim.NewRNG(3), constSource(8), paperRig(12))
	rig.Start()
	eng.RunUntil(time.Second)
	rig.Stop()
	tr := rig.Trace()
	// 1 kHz for 1 s → ~1000 samples (modulo the final partial frame).
	if tr.Len() < 990 || tr.Len() > 1001 {
		t.Fatalf("collected %d samples in 1s, want ≈ 1000", tr.Len())
	}
	for i := 1; i < tr.Len(); i++ {
		dt := tr.At(i).T - tr.At(i-1).T
		if dt != time.Millisecond {
			t.Fatalf("sample gap %v at %d, want 1ms", dt, i)
		}
	}
}

func TestRigStopFlushesPartialFrame(t *testing.T) {
	eng := sim.NewEngine()
	rig := newRig(eng, sim.NewRNG(3), constSource(8), paperRig(12))
	rig.Start()
	eng.RunUntil(5 * time.Millisecond) // fewer samples than one frame
	rig.Stop()
	if rig.Trace().Len() != 5 {
		t.Fatalf("trace has %d samples, want 5 (partial frame flushed)", rig.Trace().Len())
	}
	if eng.Pending() != 0 {
		t.Fatalf("%d events still pending after Stop", eng.Pending())
	}
}

func TestRigNoisyLinkDropsFrames(t *testing.T) {
	eng := sim.NewEngine()
	cfg := paperRig(12)
	cfg.bitErrorRate = 1e-3
	rig := newRig(eng, sim.NewRNG(3), constSource(8), cfg)
	rig.Start()
	eng.RunUntil(4 * time.Second)
	rig.Stop()
	if rig.FramesBad == 0 {
		t.Fatal("noisy link produced no bad frames")
	}
	if rig.FramesOK == 0 {
		t.Fatal("noisy link delivered no good frames")
	}
	// Samples that did survive are still accurate: corruption is
	// detected, never silently wrong.
	got := rig.Trace().Mean()
	if math.Abs(got-8)/8 > 0.01 {
		t.Fatalf("surviving samples off: %.4f W for 8 W load", got)
	}
}

func TestRigStartIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	rig := newRig(eng, sim.NewRNG(3), constSource(8), paperRig(12))
	rig.Start()
	rig.Start()
	eng.RunUntil(100 * time.Millisecond)
	rig.Stop()
	if n := rig.Trace().Len(); n > 101 {
		t.Fatalf("double Start doubled sampling: %d samples in 100ms", n)
	}
}

// TestRailFor pins the rail NewRig instruments for every catalog
// profile: 12 V for the NVMe parts and the HDD, 5 V for the SATA SSDs.
// EVO's row is the rail Fig. 7's standby traces are measured on.
func TestRailFor(t *testing.T) {
	want := map[string]float64{"SSD1": 12, "SSD2": 12, "SSD3": 5, "HDD": 12, "EVO": 5, "C960": 12}
	eng := sim.NewEngine()
	for _, name := range catalog.Names() {
		dev, ok := catalog.NewNamed(name, name, eng, sim.NewRNG(1))
		if !ok {
			t.Fatalf("catalog profile %q does not build", name)
		}
		w, listed := want[name]
		if !listed {
			t.Errorf("%s: no expected rail; add it to the table", name)
			continue
		}
		if got := railFor(dev); got != w {
			t.Errorf("%s: rail = %v V, want %v V", name, got, w)
		}
	}
}
