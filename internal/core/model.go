// Package core implements the paper's primary contribution: per-device
// power-throughput models (§3.3, Fig. 10) built from measured operating
// points, and the queries a power-adaptive storage system runs against
// them — Pareto frontiers, best-configuration-under-a-power-budget,
// curtailment planning, and multi-device combination.
package core

import (
	"fmt"
	"sort"
	"time"
)

// Config identifies one operating configuration: the device's power
// state plus the IO shape applied to it.
type Config struct {
	Device     string
	PowerState int
	// Random is true for random-offset IO, false for sequential.
	Random bool
	// Write is true for write workloads, false for reads.
	Write bool
	// ChunkBytes is the IO size.
	ChunkBytes int64
	// Depth is the IO queue depth.
	Depth int
}

// String renders the configuration compactly, e.g.
// "SSD2/ps1/randwrite-256KiB-qd64".
func (c Config) String() string {
	pat, dir := "seq", "read"
	if c.Random {
		pat = "rand"
	}
	if c.Write {
		dir = "write"
	}
	return fmt.Sprintf("%s/ps%d/%s%s-%dKiB-qd%d", c.Device, c.PowerState, pat, dir, c.ChunkBytes/1024, c.Depth)
}

// Sample is one measured operating point: a configuration with the
// average power, throughput, and latency observed under it.
type Sample struct {
	Config
	PowerW         float64
	ThroughputMBps float64
	AvgLat         time.Duration
	P99Lat         time.Duration
}

// Model is the power-throughput model of one device: the set of
// operating points measured across power states and IO shapes.
type Model struct {
	device   string
	samples  []Sample
	maxPower float64
	minPower float64
	maxTput  float64
	// frontier is the Pareto frontier, sorted by increasing power. It
	// is computed once by NewModel: a model never changes afterwards, so
	// planners on any number of goroutines may share it. Fleet planning
	// reads frontier on every re-plan and must not mutate it.
	frontier []Sample
}

// NewModel builds a model from measured samples. All samples must be
// for the named device, have positive power, and nonnegative throughput.
func NewModel(dev string, samples []Sample) (*Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: model for %s needs at least one sample", dev)
	}
	m := &Model{device: dev, samples: make([]Sample, len(samples))}
	copy(m.samples, samples)
	m.minPower = samples[0].PowerW
	for _, s := range m.samples {
		if s.Device != dev {
			return nil, fmt.Errorf("core: sample %v in model for %s", s.Config, dev)
		}
		if s.PowerW <= 0 {
			return nil, fmt.Errorf("core: sample %v has non-positive power %v", s.Config, s.PowerW)
		}
		if s.ThroughputMBps < 0 {
			return nil, fmt.Errorf("core: sample %v has negative throughput", s.Config)
		}
		if s.PowerW > m.maxPower {
			m.maxPower = s.PowerW
		}
		if s.PowerW < m.minPower {
			m.minPower = s.PowerW
		}
		if s.ThroughputMBps > m.maxTput {
			m.maxTput = s.ThroughputMBps
		}
	}
	m.frontier = paretoFrontier(m.samples)
	return m, nil
}

// Device returns the device label the model describes.
func (m *Model) Device() string { return m.device }

// Samples returns a copy of the model's operating points.
func (m *Model) Samples() []Sample {
	out := make([]Sample, len(m.samples))
	copy(out, m.samples)
	return out
}

// MaxPowerW returns the highest average power across operating points.
func (m *Model) MaxPowerW() float64 { return m.maxPower }

// MinPowerW returns the lowest average power across operating points.
func (m *Model) MinPowerW() float64 { return m.minPower }

// MaxThroughputMBps returns the highest throughput across points.
func (m *Model) MaxThroughputMBps() float64 { return m.maxTput }

// DynamicRangeFrac is the paper's power dynamic range metric: the span
// of achievable average power as a fraction of maximum average power
// (SSD2 reaches 59.4%).
func (m *Model) DynamicRangeFrac() float64 {
	return (m.maxPower - m.minPower) / m.maxPower
}

// NormPoint is one Fig. 10 scatter point: power and throughput
// normalized to the device's maxima.
type NormPoint struct {
	Power, Throughput float64
	Sample            Sample
}

// Normalized returns the model's points scaled to [0, 1] on both axes,
// the form Fig. 10 plots.
func (m *Model) Normalized() []NormPoint {
	out := make([]NormPoint, len(m.samples))
	for i, s := range m.samples {
		out[i] = NormPoint{
			Power:      s.PowerW / m.maxPower,
			Throughput: s.ThroughputMBps / m.maxTput,
			Sample:     s,
		}
	}
	return out
}

// Filter returns a sub-model containing only samples accepted by keep.
// It returns an error if nothing survives.
func (m *Model) Filter(keep func(Sample) bool) (*Model, error) {
	var subset []Sample
	for _, s := range m.samples {
		if keep(s) {
			subset = append(subset, s)
		}
	}
	return NewModel(m.device, subset)
}

// ParetoFrontier returns the operating points not dominated by any
// other (no other point has power ≤ and throughput >), sorted by
// increasing power. These are the only configurations a rational
// controller ever selects.
func (m *Model) ParetoFrontier() []Sample {
	out := make([]Sample, len(m.frontier))
	copy(out, m.frontier)
	return out
}

// paretoFrontier sorts a copy of the samples by power and keeps those
// no other sample dominates.
func paretoFrontier(samples []Sample) []Sample {
	sorted := make([]Sample, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].PowerW != sorted[j].PowerW {
			return sorted[i].PowerW < sorted[j].PowerW
		}
		return sorted[i].ThroughputMBps > sorted[j].ThroughputMBps
	})
	out := sorted[:0]
	best := -1.0
	for _, s := range sorted {
		if s.ThroughputMBps > best {
			out = append(out, s)
			best = s.ThroughputMBps
		}
	}
	return out
}

// BestUnderPower returns the highest-throughput operating point whose
// average power fits the budget. ok is false if no point fits.
func (m *Model) BestUnderPower(budgetW float64) (best Sample, ok bool) {
	for _, s := range m.samples {
		if s.PowerW <= budgetW && (!ok || s.ThroughputMBps > best.ThroughputMBps) {
			best, ok = s, true
		}
	}
	return best, ok
}

// CurtailmentPlan is the paper's §3.3 worked example: to honor a power
// reduction, move from one operating point to another and curtail the
// throughput difference in best-effort load.
type CurtailmentPlan struct {
	From, To       Sample
	PowerSavedW    float64
	CurtailMBps    float64 // best-effort bandwidth that must be shed
	ThroughputKept float64 // fraction of From throughput retained
	PowerReduction float64 // fraction of From power shed
}

// Curtail plans a move from the operating point `from` to the best
// point fitting a power budget of (1-reduceFrac)·from.PowerW.
func (m *Model) Curtail(from Sample, reduceFrac float64) (CurtailmentPlan, error) {
	if reduceFrac <= 0 || reduceFrac >= 1 {
		return CurtailmentPlan{}, fmt.Errorf("core: power reduction %v out of (0,1)", reduceFrac)
	}
	// The plan's ThroughputKept and PowerReduction fractions divide by
	// the from point's throughput and power; a degenerate from sample
	// would make them NaN and poison every downstream aggregate.
	if from.ThroughputMBps <= 0 {
		return CurtailmentPlan{}, fmt.Errorf("core: curtailing from %v with zero throughput — no load to shed", from.Config)
	}
	if from.PowerW <= 0 {
		return CurtailmentPlan{}, fmt.Errorf("core: curtailing from %v with non-positive power %v W", from.Config, from.PowerW)
	}
	budget := from.PowerW * (1 - reduceFrac)
	to, ok := m.BestUnderPower(budget)
	if !ok {
		return CurtailmentPlan{}, fmt.Errorf("core: no %s operating point fits %.2f W", m.device, budget)
	}
	return CurtailmentPlan{
		From:           from,
		To:             to,
		PowerSavedW:    from.PowerW - to.PowerW,
		CurtailMBps:    from.ThroughputMBps - to.ThroughputMBps,
		ThroughputKept: to.ThroughputMBps / from.ThroughputMBps,
		PowerReduction: (from.PowerW - to.PowerW) / from.PowerW,
	}, nil
}
