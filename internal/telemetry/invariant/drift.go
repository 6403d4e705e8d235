package invariant

import "fmt"

// DriftProbe checks the mesoscale tier's central assumption: that a
// parked lane's analytic operating point still describes the lane. The
// serving engine periodically rehydrates one parked lane (a sentinel),
// re-measures its steady draw mechanistically, and feeds both numbers
// here; the probe records the worst relative disagreement. Unlike the
// engine-attached probes it has no sampling loop of its own — the
// observations only exist where the hybrid tier makes them — but the
// same contract holds: observe while running, interrogate with Check
// after.
type DriftProbe struct {
	worst     float64
	worstPred float64
	worstMeas float64
}

// Observe records one sentinel comparison between an aggregate's
// calibrated draw and the fresh mechanistic re-measurement, and
// returns this observation's relative disagreement so the caller can
// act on it (the serving engine bars a lane whose single observation
// exceeds the tolerance).
func (p *DriftProbe) Observe(predictedW, measuredW float64) float64 {
	diff, scale := relDiff(predictedW, measuredW)
	frac := diff / scale
	if frac > p.worst {
		p.worst = frac
		p.worstPred = predictedW
		p.worstMeas = measuredW
	}
	return frac
}

// WorstFrac returns the worst relative disagreement observed, as a
// fraction of the measured value. Zero when nothing was observed.
func (p *DriftProbe) WorstFrac() float64 { return p.worst }

// Check returns an error if any observation drifted beyond tolFrac.
// A run with no parked lanes (hence no observations) passes: there was
// no analytic state to drift.
func (p *DriftProbe) Check(tolFrac float64) error {
	if p.worst > tolFrac {
		return fmt.Errorf("invariant: aggregate drift %.4f beyond tolerance %.4f: calibrated %.3f W, re-measured %.3f W",
			p.worst, tolFrac, p.worstPred, p.worstMeas)
	}
	return nil
}

// relDiff returns |a−b| and the scale to judge it against: |b|, floored
// so a near-zero reference cannot blow the ratio up to infinity.
func relDiff(a, b float64) (diff, scale float64) {
	diff = a - b
	if diff < 0 {
		diff = -diff
	}
	scale = b
	if scale < 0 {
		scale = -scale
	}
	if scale < 1e-12 {
		scale = 1e-12
	}
	return diff, scale
}
