// Package measure reproduces the paper's power measurement
// infrastructure (Fig. 1) end to end: a shunt resistor on the device's
// power wires turns current into a differential voltage, an
// instrumentation amplifier scales it (adding gain error, offset, and
// noise), a 24-bit ADS1256-style ADC samples it at 1 kHz, an Arduino
// frames the codes over a serial link, and a data-logging computer
// decodes the frames and converts codes back to watts through a
// two-point calibration.
//
// Every channel is the paper's chain; NewRig builds one from the device
// it measures, whose only per-device fact is its supply rail: 12 V for
// NVMe drives and HDDs, 5 V for SATA SSDs.
//
// The paper's claims about this rig — millisecond-scale sampling and
// < 1% relative error — are asserted by this package's tests.
package measure

import (
	"fmt"
	"math"

	"wattio/internal/sim"
)

// Shunt converts device current to a differential voltage: V = I·R.
// The paper uses a 0.1 Ω resistor to keep the burden voltage small.
type Shunt struct {
	// Ohms is the shunt resistance.
	Ohms float64
	// TolPPM is the resistance tolerance in parts per million; the
	// actual resistance is fixed at construction inside the tolerance.
	actualOhms float64
}

// NewShunt returns a shunt with nominal resistance ohms whose actual
// resistance deviates by a fixed, RNG-drawn amount within ±tolPPM.
func NewShunt(ohms float64, tolPPM float64, rng *sim.RNG) *Shunt {
	if ohms <= 0 {
		panic("measure: shunt resistance must be positive")
	}
	dev := (2*rng.Float64() - 1) * tolPPM / 1e6
	return &Shunt{Ohms: ohms, actualOhms: ohms * (1 + dev)}
}

// Volts returns the differential voltage for a device current in amps.
func (s *Shunt) Volts(amps float64) float64 { return amps * s.actualOhms }

// Amplifier is the differential signal amplifier between the shunt and
// the ADC. Real parts have gain error, input offset, and input-referred
// noise; all three are modeled.
type Amplifier struct {
	Gain    float64 // nominal gain
	gainErr float64 // multiplicative error, fixed per part
	OffsetV float64 // output-referred offset, fixed per part
	NoiseV  float64 // output-referred RMS noise per sample
	rng     *sim.RNG
}

// NewAmplifier returns an amplifier with the given nominal gain,
// per-part gain error and offset drawn within the given bounds, and
// per-sample Gaussian noise of rms noiseV.
func NewAmplifier(gain, gainErrPct, offsetV, noiseV float64, rng *sim.RNG) *Amplifier {
	if gain <= 0 {
		panic("measure: amplifier gain must be positive")
	}
	r := rng.Stream("amplifier")
	return &Amplifier{
		Gain:    gain,
		gainErr: 1 + (2*r.Float64()-1)*gainErrPct/100,
		OffsetV: (2*r.Float64() - 1) * offsetV,
		NoiseV:  noiseV,
		rng:     r,
	}
}

// Out returns the amplifier output for a differential input voltage.
func (a *Amplifier) Out(vin float64) float64 {
	return vin*a.Gain*a.gainErr + a.OffsetV + a.rng.Gaussian(0, a.NoiseV)
}

// ADC models the TI ADS1256: a 24-bit delta-sigma converter with a
// ±Vref full-scale input range.
type ADC struct {
	VrefV float64 // full-scale reference voltage
	Bits  int     // resolution
}

// NewADS1256 returns the converter configuration the paper uses.
func NewADS1256() *ADC { return &ADC{VrefV: 2.5, Bits: 24} }

// Code quantizes an input voltage to a signed ADC code, clipping at
// full scale.
func (a *ADC) Code(v float64) int32 {
	fs := int64(1) << (a.Bits - 1)
	code := int64(math.Round(v / a.VrefV * float64(fs)))
	if code > fs-1 {
		code = fs - 1
	}
	if code < -fs {
		code = -fs
	}
	return int32(code)
}

// Volts converts a code back to the voltage at the ADC input.
func (a *ADC) Volts(code int32) float64 {
	fs := int64(1) << (a.Bits - 1)
	return float64(code) / float64(fs) * a.VrefV
}

func (a *ADC) String() string {
	return fmt.Sprintf("%d-bit ADC, ±%.2fV full scale", a.Bits, a.VrefV)
}
