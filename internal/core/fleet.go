package core

import (
	"fmt"
	"sort"
)

// Fleet combines the power-throughput models of multiple, possibly
// heterogeneous devices. The paper (§3.3) observes that per-device
// models can be combined to derive the performance Pareto frontier of
// device configurations under a shared power budget — this type does
// that combination. A Fleet is confined to one goroutine.
type Fleet struct {
	models []*Model
	// frontier is the merged frontier of every member, built on the
	// first query that needs it.
	frontier []*planNode
}

// maxFrontierPoints bounds the merged frontier carried between pairwise
// combination steps. Homogeneous fleets in the hundreds of devices grow
// frontiers quadratic in device count — millions of points that a budget
// query never distinguishes. Thinning to this many points (always
// keeping both endpoints, so the cheapest feasible plan and the peak-
// throughput plan are exact) makes the build O(devices × cap); the
// chosen plan stays within one thinning step of optimal. Small fleets
// never hit the cap, so the exhaustive property tests exercise the
// exact frontier.
const maxFrontierPoints = 1024

// NewFleet builds a fleet over the given models.
func NewFleet(models ...*Model) (*Fleet, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("core: fleet needs at least one model")
	}
	seen := map[string]bool{}
	for _, m := range models {
		if seen[m.Device()] {
			return nil, fmt.Errorf("core: duplicate device %s in fleet", m.Device())
		}
		seen[m.Device()] = true
	}
	return &Fleet{models: models}, nil
}

// Models returns the fleet's member models.
func (f *Fleet) Models() []*Model { return f.models }

// Assignment is one operating point chosen for every device.
type Assignment struct {
	// Configs maps device label to the chosen operating point.
	Configs map[string]Sample
	// TotalPowerW and TotalMBps are the fleet-wide sums.
	TotalPowerW float64
	TotalMBps   float64
}

// planNode is one point on a merged frontier level: the index of the
// level's member's Pareto point chosen, plus a parent link to the
// choices of the levels merged before it; materialize resolves
// (level, idx) against the fleet's models. Assignments materialize into
// maps only when a query returns one — carrying maps through the merge
// itself cost a full map copy per candidate point and made large-fleet
// planning quartic.
type planNode struct {
	powerW float64
	mbps   float64
	parent *planNode
	level  int32
	idx    int32
}

// mergeLevel combines a merged level with the next member's Pareto
// points — one step of a pruned Minkowski sum, so the cost of a whole
// fleet is bounded by the capped frontier size times the device count,
// not by the full configuration cross-product.
func mergeLevel(acc []*planNode, level int, frontier []Sample) []*planNode {
	next := make([]*planNode, 0, len(acc)*len(frontier))
	for _, a := range acc {
		for i, s := range frontier {
			next = append(next, &planNode{
				powerW: a.powerW + s.PowerW,
				mbps:   a.mbps + s.ThroughputMBps,
				parent: a,
				level:  int32(level),
				idx:    int32(i),
			})
		}
	}
	return pruneDominated(next)
}

// build returns the fleet frontier as parent-linked nodes, merging the
// members in fleet order on first use.
func (f *Fleet) build() []*planNode {
	if f.frontier == nil {
		level := []*planNode{{}}
		for i, m := range f.models {
			level = mergeLevel(level, i, m.frontier)
		}
		f.frontier = level
	}
	return f.frontier
}

// materialize walks the node's parent chain into a full Assignment,
// mapping each level to the fleet's own member model.
func (f *Fleet) materialize(n *planNode) Assignment {
	a := Assignment{
		Configs:     map[string]Sample{},
		TotalPowerW: n.powerW,
		TotalMBps:   n.mbps,
	}
	for ; n.parent != nil; n = n.parent {
		m := f.models[n.level]
		a.Configs[m.Device()] = m.frontier[n.idx]
	}
	return a
}

// ParetoFrontier computes the fleet-wide Pareto frontier: assignments of
// one Pareto-optimal configuration per device such that no other
// assignment has both lower total power and higher total throughput.
func (f *Fleet) ParetoFrontier() []Assignment {
	nodes := f.build()
	out := make([]Assignment, len(nodes))
	for i, n := range nodes {
		out[i] = f.materialize(n)
	}
	return out
}

// pruneDominated keeps only points on the power-throughput Pareto
// frontier, sorted by increasing power, then thins the survivors to the
// frontier cap (endpoints always kept, interior evenly sampled).
func pruneDominated(ns []*planNode) []*planNode {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].powerW != ns[j].powerW {
			return ns[i].powerW < ns[j].powerW
		}
		return ns[i].mbps > ns[j].mbps
	})
	out := ns[:0]
	best := -1.0
	for _, n := range ns {
		if n.mbps > best {
			out = append(out, n)
			best = n.mbps
		}
	}
	if len(out) <= maxFrontierPoints {
		return out
	}
	thinned := make([]*planNode, 0, maxFrontierPoints)
	last := len(out) - 1
	for i := 0; i < maxFrontierPoints-1; i++ {
		thinned = append(thinned, out[i*last/(maxFrontierPoints-1)])
	}
	return append(thinned, out[last])
}

// BestUnderPower returns the frontier assignment with the highest total
// throughput whose total power fits the budget. ok is false when even
// the lowest-power assignment exceeds the budget.
func (f *Fleet) BestUnderPower(budgetW float64) (best Assignment, ok bool) {
	// Fast path: a budget that admits every device at its peak-throughput
	// point — the "never binds" default schedule — selects the frontier's
	// top endpoint, which is exactly the sum of per-model peaks (each
	// model's frontier strictly increases in both axes, so the all-peak
	// combination uniquely maximizes throughput, and thinning keeps
	// endpoints exact). Answering it directly skips the merged-frontier
	// build, the dominant planning cost at 10⁵-device fleet scale. The
	// sums accumulate in the same model order as the pairwise merge, so
	// the returned totals are bit-identical to the slow path's.
	if a, ok := f.peakAssignment(budgetW); ok {
		return a, true
	}
	var pick *planNode
	for _, n := range f.build() {
		if n.powerW <= budgetW {
			pick = n // frontier is sorted by power, tput increases
		} else {
			break
		}
	}
	if pick == nil {
		return Assignment{}, false
	}
	return f.materialize(pick), true
}

// peakAssignment returns every device at its peak-throughput operating
// point, or ok=false when that assignment exceeds the budget (a binding
// budget needs the real frontier).
func (f *Fleet) peakAssignment(budgetW float64) (Assignment, bool) {
	a := Assignment{Configs: make(map[string]Sample, len(f.models))}
	for _, m := range f.models {
		fr := m.frontier
		s := fr[len(fr)-1]
		a.Configs[m.Device()] = s
		a.TotalPowerW += s.PowerW
		a.TotalMBps += s.ThroughputMBps
	}
	if a.TotalPowerW > budgetW {
		return Assignment{}, false
	}
	return a, true
}
