package serve

import (
	"math/rand/v2"
	"testing"

	"wattio/internal/core"
)

// planDraw returns a plan's total lane draw and planned throughput.
func planDraw(cohorts []cohortDemand, dist [][]int) (drawW, tputMB float64) {
	for ci, c := range cohorts {
		for j, n := range dist[ci] {
			drawW += c.ladder[j].powerW * c.laneScale * float64(n)
			tputMB += c.ladder[j].tputMB * c.laneScale * float64(n)
		}
	}
	return drawW, tputMB
}

// TestPlanSharesLadder checks the planner's contract over random cohort
// mixes and slices: a plan never draws more than its slice, leaves no
// affordable rung unclimbed, puts every lane at its top level under a
// slice that never binds, and is infeasible exactly when the all-bottom
// plan does not fit.
func TestPlanSharesLadder(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(23, 3))
	profiles := knownProfiles()
	const eps = 1e-9
	for trial := 0; trial < 5000; trial++ {
		cohorts := make([]cohortDemand, 1+rng.IntN(3))
		var minW, maxW float64
		for ci := range cohorts {
			ladder := profileLadders[profiles[rng.IntN(len(profiles))]]
			c := cohortDemand{ladder: ladder, count: rng.IntN(20), laneScale: float64(1 + rng.IntN(3))}
			cohorts[ci] = c
			minW += ladder[0].powerW * c.laneScale * float64(c.count)
			maxW += ladder[len(ladder)-1].powerW * c.laneScale * float64(c.count)
		}
		slice := rng.Float64() * 1.2 * maxW
		dist, ok := planShares(cohorts, slice)
		if ok != (minW <= slice) {
			t.Fatalf("trial %d: ok=%v with all-bottom draw %.3f W under a %.3f W slice", trial, ok, minW, slice)
		}
		if !ok {
			continue
		}
		drawW, _ := planDraw(cohorts, dist)
		if drawW > slice+eps {
			t.Fatalf("trial %d: plan draws %.6f W over its %.6f W slice: %v", trial, drawW, slice, dist)
		}
		rem := slice - drawW
		for ci, c := range cohorts {
			n := 0
			for j, k := range dist[ci] {
				n += k
				if k > 0 && j+1 < len(c.ladder) {
					if dW := (c.ladder[j+1].powerW - c.ladder[j].powerW) * c.laneScale; dW <= rem-eps {
						t.Fatalf("trial %d: cohort %d leaves %d lanes at rung %d though its %.3f W step fits the %.3f W remainder: %v",
							trial, ci, k, j, dW, rem, dist)
					}
				}
			}
			if n != c.count {
				t.Fatalf("trial %d: cohort %d plans %d lanes, has %d", trial, ci, n, c.count)
			}
			if top := len(c.ladder) - 1; slice >= maxW && dist[ci][top] != c.count {
				t.Fatalf("trial %d: never-binding %.3f W slice (max draw %.3f W) leaves cohort %d below its top level: %v",
					trial, slice, maxW, ci, dist)
			}
		}
	}
}

// TestPlanSharesNearOptimum compares the planner with the exact
// frontier optimum (core.Fleet.BestUnderPower) on small SSD2 fleets:
// climbing one rung at a time may miss the optimum, but by less than
// one rung's throughput. SSD1 is left out on purpose — its second rung
// is more efficient than its first, so one-rung-at-a-time climbing can
// fall further behind the optimum (see DESIGN.md).
func TestPlanSharesNearOptimum(t *testing.T) {
	t.Parallel()
	ladder := profileLadders["SSD2"]
	var rungMB float64
	for j := 0; j+1 < len(ladder); j++ {
		rungMB = max(rungMB, ladder[j+1].tputMB-ladder[j].tputMB)
	}
	rng := rand.New(rand.NewPCG(23, 5))
	for n := 1; n <= 8; n++ {
		models := make([]*core.Model, n)
		for i := range models {
			m, err := planningModel("SSD2", InstanceName("SSD2", i))
			if err != nil {
				t.Fatal(err)
			}
			models[i] = m
		}
		fleet, err := core.NewFleet(models...)
		if err != nil {
			t.Fatal(err)
		}
		cohorts := []cohortDemand{{ladder: ladder, count: n, laneScale: 1}}
		lo, hi := float64(n)*ladder[0].powerW, float64(n)*ladder[len(ladder)-1].powerW
		for trial := 0; trial < 200; trial++ {
			slice := lo + rng.Float64()*(hi-lo)*1.05
			dist, ok := planShares(cohorts, slice)
			best, bok := fleet.BestUnderPower(slice)
			if ok != bok {
				t.Fatalf("%d lanes, %.3f W: planner ok=%v, frontier ok=%v", n, slice, ok, bok)
			}
			if _, got := planDraw(cohorts, dist); got < best.TotalMBps-rungMB {
				t.Fatalf("%d lanes, %.3f W: planner %.0f MB/s, optimum %.0f MB/s — more than one %.0f MB/s rung short (%v)",
					n, slice, got, best.TotalMBps, rungMB, dist)
			}
		}
	}
}

// planningModel builds the core planning model of one SSD instance from
// the planning table, the model the exact frontier plans over.
func planningModel(profile, instance string) (*core.Model, error) {
	points := planningTable[profile]
	samples := make([]core.Sample, len(points))
	for i, p := range points {
		samples[i] = core.Sample{
			Config:         core.Config{Device: instance, PowerState: p.ps, Random: true, Write: true, ChunkBytes: 256 << 10, Depth: 64},
			PowerW:         p.powerW,
			ThroughputMBps: p.tputMB,
		}
	}
	return core.NewModel(instance, samples)
}
