package serve

import "sort"

// Budget planning: every shard plans its lanes as cohorts of
// interchangeable, same-profile members. A plan is a count per operating
// level, so the planner's work is O(#cohorts × #levels), not O(#lanes),
// and a budget step moves whole buckets at once. A plain fleet is the
// case where every cohort is fully resident.

// ladderLevel is one rung of a profile's planning ladder: the planning
// power state and the per-device planning draw/throughput.
type ladderLevel struct {
	level  int // planning-table power state
	powerW float64
	tputMB float64
}

// profileLadders maps each profile to its planning ladder (see
// paretoLadder). Built once at init from the static planning table.
var profileLadders = func() map[string][]ladderLevel {
	out := make(map[string][]ladderLevel, len(planningTable))
	for p, points := range planningTable {
		out[p] = paretoLadder(points)
	}
	return out
}()

// paretoLadder returns a profile's Pareto-optimal planning points sorted
// by increasing power: every point that no cheaper-or-equal point
// matches in throughput. A point under the chord of its neighbours is
// kept. The chord assumes a cohort can mix the neighbours in any
// proportion, and a shard's few lanes cannot: dropping SSD2's ps1, 0.4%
// under its chord, left 3.4 W of a 16-lane shard's 168 W slice unspent.
func paretoLadder(points []planPoint) []ladderLevel {
	sorted := make([]planPoint, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].powerW != sorted[j].powerW {
			return sorted[i].powerW < sorted[j].powerW
		}
		return sorted[i].tputMB > sorted[j].tputMB
	})
	var ladder []ladderLevel
	for _, pt := range sorted {
		if len(ladder) > 0 && pt.tputMB <= ladder[len(ladder)-1].tputMB {
			continue // dominated: no throughput for the extra power
		}
		ladder = append(ladder, ladderLevel{level: pt.ps, powerW: pt.powerW, tputMB: pt.tputMB})
	}
	return ladder
}

// cohortDemand is one cohort's input to the bulk allocator.
type cohortDemand struct {
	ladder []ladderLevel
	count  int
	// laneScale converts a ladder level's per-device draw to a lane draw
	// (Replicas: spares hold planned states and draw power too).
	laneScale float64
}

// planShares allocates lane counts to ladder levels across cohorts under
// a shard power slice: every lane starts at its cohort's lowest-power
// level, then the remaining budget buys upgrades rung by rung in global
// marginal-efficiency order. The rung pass repeats until no rung moves:
// on a ladder that is not concave a higher rung is the more efficient
// one, so it comes first in the pass while no lane has reached it yet,
// and a single pass would leave lanes a rung below what the budget
// affords. Lanes climb one rung at a time, so on such a ladder the plan
// can fall short of the exact optimum: by less than one rung's
// throughput on small SSD2 fleets, by more on SSD1, whose second rung
// is far more efficient than its first. Returns one count-per-level
// slice per cohort, or ok=false when even the all-minimum allocation
// exceeds the slice. Deterministic: ties in efficiency break by cohort
// then rung index. Each moving pass costs O(Σ levels), independent of
// lane count.
func planShares(cohorts []cohortDemand, sliceW float64) (dist [][]int, ok bool) {
	dist = make([][]int, len(cohorts))
	base := 0.0
	for ci, c := range cohorts {
		dist[ci] = make([]int, len(c.ladder))
		dist[ci][0] = c.count
		base += c.ladder[0].powerW * c.laneScale * float64(c.count)
	}
	if base > sliceW {
		return nil, false
	}
	rem := sliceW - base

	type rung struct {
		ci, j  int
		dW, dT float64 // per-lane upgrade cost and gain, ladder[j] → ladder[j+1]
		eff    float64
	}
	var rungs []rung
	for ci, c := range cohorts {
		for j := 0; j+1 < len(c.ladder); j++ {
			dW := (c.ladder[j+1].powerW - c.ladder[j].powerW) * c.laneScale
			dT := (c.ladder[j+1].tputMB - c.ladder[j].tputMB) * c.laneScale
			rungs = append(rungs, rung{ci: ci, j: j, dW: dW, dT: dT, eff: dT / dW})
		}
	}
	sort.Slice(rungs, func(i, j int) bool {
		if rungs[i].eff != rungs[j].eff {
			return rungs[i].eff > rungs[j].eff
		}
		if rungs[i].ci != rungs[j].ci {
			return rungs[i].ci < rungs[j].ci
		}
		return rungs[i].j < rungs[j].j
	})
	for moved := true; moved; {
		moved = false
		for _, r := range rungs {
			avail := dist[r.ci][r.j]
			if avail == 0 || rem < r.dW {
				continue
			}
			n := int(rem / r.dW)
			if n > avail {
				n = avail
			}
			dist[r.ci][r.j] -= n
			dist[r.ci][r.j+1] += n
			rem -= float64(n) * r.dW
			moved = true
		}
	}
	return dist, true
}
