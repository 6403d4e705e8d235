package measure

import (
	"fmt"
	"time"

	"wattio/internal/sim"
	"wattio/internal/telemetry"
	"wattio/internal/trace"
)

// PowerSource is anything whose instantaneous electrical draw the rig
// can be clamped onto — in practice a device.Device.
type PowerSource interface {
	InstantPower() float64
}

// RigConfig describes one measurement channel. Defaults mirror the
// paper's setup: a 0.1 Ω shunt, a differential amplifier, and a 24-bit
// ADS1256 sampling at 1 kHz.
type RigConfig struct {
	RailV         float64       // supply rail under measurement (12 V PCIe riser, 5 V SATA)
	SampleEvery   time.Duration // ADC sample period (paper: 1 ms)
	ShuntOhms     float64
	ShuntTolPPM   float64
	AmpGain       float64
	AmpGainErrPct float64
	AmpOffsetV    float64
	AmpNoiseV     float64 // output-referred RMS noise per sample
	FrameSamples  int     // ADC codes per serial frame
	BitErrorRate  float64 // serial-link corruption probability per bit
}

// DefaultRigConfig returns the paper's rig for a given supply rail.
func DefaultRigConfig(railV float64) RigConfig {
	return RigConfig{
		RailV:         railV,
		SampleEvery:   time.Millisecond,
		ShuntOhms:     0.1,
		ShuntTolPPM:   200,
		AmpGain:       16,
		AmpGainErrPct: 0.4,
		AmpOffsetV:    2e-3,
		AmpNoiseV:     1.5e-3,
		FrameSamples:  16,
	}
}

// Rig is one assembled measurement channel: shunt → amplifier → ADC →
// Arduino serial framing → logging computer. Construct with NewRig,
// which performs a two-point calibration, then Start sampling.
type Rig struct {
	cfg   RigConfig
	eng   *sim.Engine
	src   PowerSource
	shunt *Shunt
	amp   *Amplifier
	adc   *ADC
	wire  *sim.RNG // serial-link corruption stream

	calGainWPerV float64
	calOffsetW   float64

	tr        *trace.PowerTrace
	seq       uint16
	batch     []int32
	batchT    []time.Duration
	wireBuf   []byte  // reused frame encode/transmit buffer
	codeBuf   []int32 // reused logger-side decode buffer
	sampling  bool
	tick      *sim.Timer
	FramesOK  int
	FramesBad int

	// Telemetry. Nil-safe no-ops when the engine has none attached.
	tracer     *telemetry.Tracer
	cSamples   *telemetry.Counter
	cFramesOK  *telemetry.Counter
	cFramesBad *telemetry.Counter
}

// NewRig assembles a measurement channel on src and calibrates it
// against two known dummy loads spanning the expected range.
func NewRig(eng *sim.Engine, rng *sim.RNG, src PowerSource, cfg RigConfig) (*Rig, error) {
	switch {
	case cfg.RailV <= 0:
		return nil, fmt.Errorf("measure: rail voltage must be positive")
	case cfg.SampleEvery <= 0:
		return nil, fmt.Errorf("measure: sample period must be positive")
	case cfg.FrameSamples <= 0 || cfg.FrameSamples > maxFrameSamples:
		return nil, fmt.Errorf("measure: frame size %d out of (0, %d]", cfg.FrameSamples, maxFrameSamples)
	}
	r := rng.Stream("rig")
	rig := &Rig{
		cfg:   cfg,
		eng:   eng,
		src:   src,
		shunt: NewShunt(cfg.ShuntOhms, cfg.ShuntTolPPM, r.Stream("shunt")),
		amp:   NewAmplifier(cfg.AmpGain, cfg.AmpGainErrPct, cfg.AmpOffsetV, cfg.AmpNoiseV, r),
		adc:   NewADS1256(),
		wire:  r.Stream("wire"),
		tr:    &trace.PowerTrace{},

		batch:   make([]int32, 0, cfg.FrameSamples),
		batchT:  make([]time.Duration, 0, cfg.FrameSamples),
		wireBuf: make([]byte, 0, 5+3*cfg.FrameSamples+2),
		codeBuf: make([]int32, 0, cfg.FrameSamples),

		tracer:     eng.Tracer(),
		cSamples:   eng.Metrics().Counter("rig_samples_total"),
		cFramesOK:  eng.Metrics().Counter("rig_frames_ok_total"),
		cFramesBad: eng.Metrics().Counter("rig_frames_bad_total"),
	}
	// Two-point calibration with dummy loads at 5% and 80% of the
	// channel's full-scale power (the power at which the amplifier
	// output reaches the ADC reference).
	full := cfg.RailV * rig.adc.VrefV / (cfg.AmpGain * cfg.ShuntOhms)
	rig.calibrate(0.05*full, 0.80*full, 256)
	return rig, nil
}

// sampleCode pushes a known power through the physical chain once.
func (r *Rig) sampleCode(watts float64) int32 {
	amps := watts / r.cfg.RailV
	return r.adc.Code(r.amp.Out(r.shunt.Volts(amps)))
}

// calibrate fits watts = gain·Vadc + offset from two averaged dummy-load
// readings, absorbing shunt tolerance, amplifier gain error, and offset.
func (r *Rig) calibrate(p1, p2 float64, n int) {
	avg := func(p float64) float64 {
		var sum float64
		for i := 0; i < n; i++ {
			sum += r.adc.Volts(r.sampleCode(p))
		}
		return sum / float64(n)
	}
	v1, v2 := avg(p1), avg(p2)
	r.calGainWPerV = (p2 - p1) / (v2 - v1)
	r.calOffsetW = p1 - r.calGainWPerV*v1
}

// Watts converts an ADC code to calibrated watts.
func (r *Rig) Watts(code int32) float64 {
	return r.calGainWPerV*r.adc.Volts(code) + r.calOffsetW
}

// Start begins periodic sampling. Samples flow through the serial
// framing; frames that fail CRC on the logger side are dropped and
// counted in FramesBad.
func (r *Rig) Start() {
	if r.sampling {
		return
	}
	r.sampling = true
	if r.tick == nil {
		r.tick = r.eng.After(r.cfg.SampleEvery, r.onTick)
	} else {
		r.tick.RescheduleAfter(r.cfg.SampleEvery)
	}
}

// onTick takes one ADC sample, then enters the sampling fast path: as
// long as the next sample instant falls strictly before any pending
// event (device power is piecewise-constant between events, so nothing
// the rig observes can change) and within the active RunUntil deadline,
// it advances the virtual clock and samples inline instead of
// round-tripping the event queue. The clock genuinely advances to each
// sample instant, so lazily-integrated meter state and RNG draw order
// are exactly what the one-event-per-sample loop produced.
func (r *Rig) onTick() {
	r.sampleOnce()
	next := r.eng.Now() + r.cfg.SampleEvery
	for r.sampling {
		if p, ok := r.eng.NextEventAt(); ok && p <= next {
			break
		}
		if dl, ok := r.eng.Deadline(); !ok || next > dl {
			break
		}
		r.eng.AdvanceTo(next)
		r.sampleOnce()
		next += r.cfg.SampleEvery
	}
	if r.sampling {
		r.tick.Reschedule(next)
	}
}

func (r *Rig) sampleOnce() {
	r.batch = append(r.batch, r.sampleCode(r.src.InstantPower()))
	r.batchT = append(r.batchT, r.eng.Now())
	if len(r.batch) >= r.cfg.FrameSamples {
		r.flush()
	}
}

// Stop halts sampling and flushes any partial frame.
func (r *Rig) Stop() {
	if !r.sampling {
		return
	}
	r.sampling = false
	if r.tick != nil {
		r.tick.Stop()
	}
	if len(r.batch) > 0 {
		r.flush()
	}
}

// flush encodes the pending batch as a serial frame, transmits it
// across the (possibly noisy) link, decodes it on the logger side, and
// appends calibrated samples to the trace.
func (r *Rig) flush() {
	wire := AppendFrame(r.wireBuf[:0], r.seq, r.batch)
	r.wireBuf = wire
	r.seq++
	if r.cfg.BitErrorRate > 0 {
		for i := range wire {
			for b := 0; b < 8; b++ {
				if r.wire.Float64() < r.cfg.BitErrorRate {
					wire[i] ^= 1 << b
				}
			}
		}
	}
	_, codes, _, err := DecodeFrameInto(wire, r.codeBuf[:0])
	r.codeBuf = codes
	if err != nil {
		r.FramesBad++
		r.cFramesBad.Inc()
	} else {
		r.FramesOK++
		r.cFramesOK.Inc()
		r.cSamples.Add(int64(len(codes)))
		for i, code := range codes {
			w := r.Watts(code)
			r.tr.Append(r.batchT[i], w)
			r.tracer.Counter("power_w", r.batchT[i], w)
		}
	}
	r.batch = r.batch[:0]
	r.batchT = r.batchT[:0]
}

// Trace returns the calibrated power trace collected so far.
func (r *Rig) Trace() *trace.PowerTrace { return r.tr }
