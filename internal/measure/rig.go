package measure

import (
	"time"

	"wattio/internal/device"
	"wattio/internal/hdd"
	"wattio/internal/sim"
	"wattio/internal/telemetry"
	"wattio/internal/trace"
)

// PowerSource is anything whose instantaneous electrical draw the rig
// can be clamped onto — in practice a device.Device.
type PowerSource interface {
	InstantPower() float64
}

// The paper's channel: a 0.1 Ω shunt, a 16× differential amplifier and
// a 24-bit ADS1256 sampling at 1 kHz, its codes framed 16 at a time.
const (
	shuntOhms    = 0.1
	ampGain      = 16
	samplePeriod = time.Millisecond
	frameSamples = 16
)

// rigConfig holds a channel's rail and what tests vary: the error
// bounds of the shunt and amplifier parts and the serial link's bit
// error rate.
type rigConfig struct {
	railV         float64 // supply rail under measurement (12 V PCIe riser, 5 V SATA)
	shuntTolPPM   float64
	ampGainErrPct float64
	ampOffsetV    float64
	ampNoiseV     float64 // output-referred RMS noise per sample
	bitErrorRate  float64 // serial-link corruption probability per bit
}

// paperRig returns the paper's parts on a clean link for a given rail.
func paperRig(railV float64) rigConfig {
	return rigConfig{
		railV:         railV,
		shuntTolPPM:   200,
		ampGainErrPct: 0.4,
		ampOffsetV:    2e-3,
		ampNoiseV:     1.5e-3,
	}
}

// railFor returns the supply rail the rig instruments for a device: the
// 12 V riser/peripheral rail for NVMe devices and HDD spindle motors,
// 5 V for SATA SSDs.
func railFor(d device.Device) float64 {
	if _, isHDD := d.(*hdd.HDD); isHDD {
		return 12
	}
	if d.Protocol() == device.SATA {
		return 5
	}
	return 12
}

// Rig is one assembled measurement channel: shunt → amplifier → ADC →
// Arduino serial framing → logging computer. Construct with NewRig,
// which performs a two-point calibration, then Start sampling.
type Rig struct {
	cfg   rigConfig
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

// NewRig assembles the paper's measurement channel on dev's supply
// rail and calibrates it against two known dummy loads spanning the
// expected range.
func NewRig(eng *sim.Engine, rng *sim.RNG, dev device.Device) *Rig {
	return newRig(eng, rng, dev, paperRig(railFor(dev)))
}

// newRig assembles a channel on any power source with the given parts,
// so tests can clamp it onto fixed loads, strip its errors or add link
// noise.
func newRig(eng *sim.Engine, rng *sim.RNG, src PowerSource, cfg rigConfig) *Rig {
	r := rng.Stream("rig")
	rig := &Rig{
		cfg:   cfg,
		eng:   eng,
		src:   src,
		shunt: NewShunt(shuntOhms, cfg.shuntTolPPM, r.Stream("shunt")),
		amp:   NewAmplifier(ampGain, cfg.ampGainErrPct, cfg.ampOffsetV, cfg.ampNoiseV, r),
		adc:   NewADS1256(),
		wire:  r.Stream("wire"),
		tr:    &trace.PowerTrace{},

		batch:   make([]int32, 0, frameSamples),
		batchT:  make([]time.Duration, 0, frameSamples),
		wireBuf: make([]byte, 0, 5+3*frameSamples+2),
		codeBuf: make([]int32, 0, frameSamples),

		tracer:     eng.Tracer(),
		cSamples:   eng.Metrics().Counter("rig_samples_total"),
		cFramesOK:  eng.Metrics().Counter("rig_frames_ok_total"),
		cFramesBad: eng.Metrics().Counter("rig_frames_bad_total"),
	}
	// Two-point calibration with dummy loads at 5% and 80% of the
	// channel's full-scale power (the power at which the amplifier
	// output reaches the ADC reference).
	full := cfg.railV * rig.adc.VrefV / (ampGain * shuntOhms)
	rig.calibrate(0.05*full, 0.80*full, 256)
	return rig
}

// sampleCode pushes a known power through the physical chain once.
func (r *Rig) sampleCode(watts float64) int32 {
	amps := watts / r.cfg.railV
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
		r.tick = r.eng.After(samplePeriod, r.onTick)
	} else {
		r.tick.RescheduleAfter(samplePeriod)
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
	next := r.eng.Now() + samplePeriod
	for r.sampling {
		if p, ok := r.eng.NextEventAt(); ok && p <= next {
			break
		}
		if dl, ok := r.eng.Deadline(); !ok || next > dl {
			break
		}
		r.eng.AdvanceTo(next)
		r.sampleOnce()
		next += samplePeriod
	}
	if r.sampling {
		r.tick.Reschedule(next)
	}
}

func (r *Rig) sampleOnce() {
	r.batch = append(r.batch, r.sampleCode(r.src.InstantPower()))
	r.batchT = append(r.batchT, r.eng.Now())
	if len(r.batch) >= frameSamples {
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
	if r.cfg.bitErrorRate > 0 {
		for i := range wire {
			for b := 0; b < 8; b++ {
				if r.wire.Float64() < r.cfg.bitErrorRate {
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
