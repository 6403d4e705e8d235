package measure

import (
	"math"
	"testing"
	"time"

	"wattio/internal/sim"
)

// BenchmarkRigSample measures one ADC sample through the full physical
// chain — shunt, amplifier, ADC, serial framing — on the rig's batching
// fast path: the engine has no other events, so after the first tick the
// sampler advances the clock inline instead of round-tripping the event
// queue. Frame encode/decode buffers are reused and the power trace
// grows in chunks, so allocs/op reports 0 at steady state (asserted
// strictly by TestRigSampleAllocFree).
func BenchmarkRigSample(b *testing.B) {
	eng := sim.NewEngine()
	rig := newRig(eng, sim.NewRNG(42), constSource(6.5), paperRig(12))
	rig.Start()
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunUntil(time.Duration(b.N) * samplePeriod)
	b.StopTimer()
	if got := rig.Trace().Len(); got < b.N-maxFrameSamples {
		b.Fatalf("collected %d samples, want ≥ %d", got, b.N-maxFrameSamples)
	}
}

// TestRigSampleAllocFree pins the per-sample path to zero allocations.
// The frame flush every maxFrameSamples samples amortizes trace-chunk
// growth to ~1/4096 allocs per sample; the test isolates the sample path
// by draining the batch just before it fills, so any allocation here is
// a real per-sample regression, not chunk growth.
func TestRigSampleAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	rig := newRig(eng, sim.NewRNG(42), constSource(6.5), paperRig(12))
	rig.sampleOnce() // warm the batch buffers
	n := testing.AllocsPerRun(500, func() {
		rig.sampleOnce()
		if len(rig.batch) == frameSamples-1 {
			rig.batch = rig.batch[:0]
			rig.batchT = rig.batchT[:0]
		}
	})
	if n != 0 {
		t.Fatalf("rig sample path allocates %v per sample, want 0", n)
	}
}

// BenchmarkAblationMeasurementNoise runs the rig against a known load
// with and without the parts' errors and noise, reporting relative
// error — the <1% claim should not depend on averaging away a broken
// chain.
func BenchmarkAblationMeasurementNoise(b *testing.B) {
	for _, noisy := range []bool{true, false} {
		name := "noisy"
		if !noisy {
			name = "ideal"
		}
		b.Run(name, func(b *testing.B) {
			var relErr float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				cfg := paperRig(12)
				if !noisy {
					cfg.ampNoiseV, cfg.ampGainErrPct, cfg.ampOffsetV, cfg.shuntTolPPM = 0, 0, 0, 0
				}
				rig := newRig(eng, sim.NewRNG(3), constSource(8.19), cfg)
				rig.Start()
				eng.RunUntil(eng.Now() + 2*time.Second)
				rig.Stop()
				relErr = math.Abs(rig.Trace().Mean()-8.19) / 8.19 * 100
			}
			b.ReportMetric(relErr, "rel_err_pct")
		})
	}
}
