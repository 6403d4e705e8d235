package adaptive

import (
	"fmt"

	"wattio/internal/device"
)

// AsymmetricPlacer exploits the paper's read/write asymmetry under
// power caps (§3.2.1, §4): capping barely hurts reads but crushes
// writes, so it segregates write traffic onto a small uncapped write
// set while the remaining devices serve reads under an aggressive power
// cap.
type AsymmetricPlacer struct {
	writers []device.Device
	readers []device.Device
	wOut    []int
	rOut    []int
}

// NewAsymmetricPlacer builds a placer with the given write set (left in
// ps0) and read set (capped to readerPS). Devices without power states
// are accepted in the read set only if readerPS is 0.
func NewAsymmetricPlacer(writers, readers []device.Device, readerPS int) (*AsymmetricPlacer, error) {
	if len(writers) == 0 || len(readers) == 0 {
		return nil, fmt.Errorf("adaptive: placer needs both writers and readers")
	}
	for _, d := range readers {
		if readerPS == 0 {
			continue
		}
		if err := d.SetPowerState(readerPS); err != nil {
			return nil, fmt.Errorf("adaptive: capping reader %s: %w", d.Name(), err)
		}
	}
	for _, d := range writers {
		if len(d.PowerStates()) > 0 {
			if err := d.SetPowerState(0); err != nil {
				return nil, fmt.Errorf("adaptive: uncapping writer %s: %w", d.Name(), err)
			}
		}
	}
	return &AsymmetricPlacer{
		writers: writers,
		readers: readers,
		wOut:    make([]int, len(writers)),
		rOut:    make([]int, len(readers)),
	}, nil
}

// Submit routes a request by direction: writes to the least-loaded
// writer, reads to the least-loaded reader.
func (p *AsymmetricPlacer) Submit(req device.Request, done func()) {
	devs, out := p.readers, p.rOut
	if req.Op == device.OpWrite {
		devs, out = p.writers, p.wOut
	}
	best := 0
	for i := range devs {
		if out[i] < out[best] {
			best = i
		}
	}
	out[best]++
	devs[best].Submit(req, func() {
		out[best]--
		done()
	})
}

// TotalPower returns the placer's ensemble draw.
func (p *AsymmetricPlacer) TotalPower() float64 {
	var sum float64
	for _, d := range p.writers {
		sum += d.InstantPower()
	}
	for _, d := range p.readers {
		sum += d.InstantPower()
	}
	return sum
}
