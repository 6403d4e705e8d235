package core

import (
	"fmt"
	"time"
)

// The paper (§4): "For latency, a similar model can be drawn from the
// measurement results." This file adds latency-aware queries: the same
// Pareto/budget machinery, but constrained by service-level objectives
// on average or tail latency.

// SLO is a service-level objective an operating point must satisfy.
// Zero fields are unconstrained.
type SLO struct {
	MaxAvgLat time.Duration
	MaxP99Lat time.Duration
	MinMBps   float64
}

// Meets reports whether the sample satisfies the SLO.
func (s SLO) Meets(x Sample) bool {
	if s.MaxAvgLat > 0 && x.AvgLat > s.MaxAvgLat {
		return false
	}
	if s.MaxP99Lat > 0 && x.P99Lat > s.MaxP99Lat {
		return false
	}
	if s.MinMBps > 0 && x.ThroughputMBps < s.MinMBps {
		return false
	}
	return true
}

// String renders the SLO compactly.
func (s SLO) String() string {
	out := ""
	if s.MaxAvgLat > 0 {
		out += fmt.Sprintf("avg≤%v ", s.MaxAvgLat)
	}
	if s.MaxP99Lat > 0 {
		out += fmt.Sprintf("p99≤%v ", s.MaxP99Lat)
	}
	if s.MinMBps > 0 {
		out += fmt.Sprintf("tput≥%.0fMBps ", s.MinMBps)
	}
	if out == "" {
		return "unconstrained"
	}
	return out[:len(out)-1]
}

// BestUnderPowerSLO returns the highest-throughput operating point that
// fits the power budget and satisfies the SLO.
func (m *Model) BestUnderPowerSLO(budgetW float64, slo SLO) (best Sample, ok bool) {
	for _, s := range m.samples {
		if s.PowerW > budgetW || !slo.Meets(s) {
			continue
		}
		if !ok || s.ThroughputMBps > best.ThroughputMBps {
			best, ok = s, true
		}
	}
	return best, ok
}

// MinPowerSLO returns the lowest-power operating point satisfying the
// SLO — the configuration a power-shedding controller should pick when
// it must preserve a latency guarantee.
func (m *Model) MinPowerSLO(slo SLO) (best Sample, ok bool) {
	for _, s := range m.samples {
		if !slo.Meets(s) {
			continue
		}
		if !ok || s.PowerW < best.PowerW {
			best, ok = s, true
		}
	}
	return best, ok
}
