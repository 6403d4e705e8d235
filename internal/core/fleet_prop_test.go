package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Property-based hardening of the fleet planning layer: for seeded
// random fleets, the pruned-Minkowski ParetoFrontier and the queries on
// it are checked against brute-force enumeration of the full per-device
// configuration cross-product. Sample values are drawn on a quarter-watt
// grid and both sides fold sums in the same device order, so reference
// and implementation agree bitwise and no tolerance can mask a bug.

// randFleet builds a random fleet of 1-4 devices with 1-5 samples each.
func randFleet(t *testing.T, r *rand.Rand) *Fleet {
	t.Helper()
	nDev := 1 + r.Intn(4)
	models := make([]*Model, nDev)
	for d := range models {
		name := fmt.Sprintf("dev%d", d)
		samples := make([]Sample, 1+r.Intn(5))
		for i := range samples {
			samples[i] = Sample{
				Config: Config{Device: name, PowerState: i, Random: true, Write: true,
					ChunkBytes: 256 << 10, Depth: 64},
				PowerW:         0.25 * float64(1+r.Intn(80)),  // 0.25..20 W
				ThroughputMBps: 0.25 * float64(r.Intn(16001)), // 0..4000 MB/s
			}
		}
		m, err := NewModel(name, samples)
		if err != nil {
			t.Fatal(err)
		}
		models[d] = m
	}
	f, err := NewFleet(models...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// crossProduct enumerates every full assignment (one sample per device),
// folding totals in model order exactly like ParetoFrontier does.
func crossProduct(f *Fleet) []Assignment {
	acc := []Assignment{{Configs: map[string]Sample{}}}
	for _, m := range f.Models() {
		var next []Assignment
		for _, a := range acc {
			for _, s := range m.Samples() {
				cfgs := make(map[string]Sample, len(a.Configs)+1)
				for k, v := range a.Configs {
					cfgs[k] = v
				}
				cfgs[m.Device()] = s
				next = append(next, Assignment{
					Configs:     cfgs,
					TotalPowerW: a.TotalPowerW + s.PowerW,
					TotalMBps:   a.TotalMBps + s.ThroughputMBps,
				})
			}
		}
		acc = next
	}
	return acc
}

func dominates(a, b Assignment) bool {
	return a.TotalPowerW <= b.TotalPowerW && a.TotalMBps >= b.TotalMBps &&
		(a.TotalPowerW < b.TotalPowerW || a.TotalMBps > b.TotalMBps)
}

type pt struct{ p, t float64 }

// refFrontier is the brute-force frontier: the deduplicated
// (power, throughput) pairs of non-dominated full assignments.
func refFrontier(all []Assignment) map[pt]bool {
	out := map[pt]bool{}
	for _, a := range all {
		dominated := false
		for _, b := range all {
			if dominates(b, a) {
				dominated = true
				break
			}
		}
		if !dominated {
			out[pt{a.TotalPowerW, a.TotalMBps}] = true
		}
	}
	return out
}

func TestParetoFrontierMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := randFleet(t, r)
		frontier := f.ParetoFrontier()
		all := crossProduct(f)
		want := refFrontier(all)

		got := map[pt]bool{}
		for _, a := range frontier {
			// Each frontier assignment must be internally consistent:
			// totals re-derivable from its per-device configs.
			var p, tp float64
			for _, m := range f.Models() {
				s, ok := a.Configs[m.Device()]
				if !ok {
					t.Fatalf("seed %d: frontier assignment missing device %s", seed, m.Device())
				}
				p += s.PowerW
				tp += s.ThroughputMBps
			}
			if p != a.TotalPowerW || tp != a.TotalMBps {
				t.Fatalf("seed %d: totals (%v W, %v MB/s) != config sums (%v, %v)",
					seed, a.TotalPowerW, a.TotalMBps, p, tp)
			}
			if got[pt{p, tp}] {
				t.Fatalf("seed %d: duplicate frontier point (%v W, %v MB/s)", seed, p, tp)
			}
			got[pt{p, tp}] = true
		}

		// Soundness: every returned point is non-dominated.
		for g := range got {
			if !want[g] {
				t.Errorf("seed %d: frontier point (%v W, %v MB/s) is dominated or unreachable", seed, g.p, g.t)
			}
		}
		// Completeness: every non-dominated point is returned.
		for w := range want {
			if !got[w] {
				t.Errorf("seed %d: non-dominated point (%v W, %v MB/s) missing from frontier", seed, w.p, w.t)
			}
		}
		// Ordering: sorted by strictly increasing power AND throughput.
		for i := 1; i < len(frontier); i++ {
			if frontier[i].TotalPowerW <= frontier[i-1].TotalPowerW ||
				frontier[i].TotalMBps <= frontier[i-1].TotalMBps {
				t.Errorf("seed %d: frontier not strictly increasing at %d: (%v, %v) then (%v, %v)",
					seed, i, frontier[i-1].TotalPowerW, frontier[i-1].TotalMBps,
					frontier[i].TotalPowerW, frontier[i].TotalMBps)
			}
		}
	}
}

func TestBestUnderPowerOptimal(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := randFleet(t, r)
		all := crossProduct(f)

		// Probe budgets around every achievable power level, plus the
		// unsatisfiable low end and the unconstrained high end.
		budgets := []float64{0, 1e9}
		for _, a := range all {
			budgets = append(budgets, a.TotalPowerW, a.TotalPowerW-0.01, a.TotalPowerW+0.01)
		}
		for _, budget := range budgets {
			best, ok := f.BestUnderPower(budget)

			refOK := false
			refTput := 0.0
			for _, a := range all {
				if a.TotalPowerW <= budget && (!refOK || a.TotalMBps > refTput) {
					refOK, refTput = true, a.TotalMBps
				}
			}
			if ok != refOK {
				t.Fatalf("seed %d budget %v: ok=%v, brute force %v", seed, budget, ok, refOK)
			}
			if !ok {
				continue
			}
			if best.TotalPowerW > budget {
				t.Fatalf("seed %d: BestUnderPower(%v) exceeds budget: %v W", seed, budget, best.TotalPowerW)
			}
			if best.TotalMBps != refTput {
				t.Fatalf("seed %d budget %v: throughput %v, brute-force optimum %v",
					seed, budget, best.TotalMBps, refTput)
			}
		}
	}
}

// TestBestUnderPowerPeakFastPath pins the unconstrained-budget fast
// path to the frontier endpoint it replaces: same per-device operating
// points and bitwise-identical totals (both fold sums in model order).
func TestBestUnderPowerPeakFastPath(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := randFleet(t, r)
		fast, ok := f.BestUnderPower(1e9)
		if !ok {
			t.Fatalf("seed %d: unconstrained budget infeasible", seed)
		}
		nodes := f.build()
		slow := f.materialize(nodes[len(nodes)-1])
		if fast.TotalPowerW != slow.TotalPowerW || fast.TotalMBps != slow.TotalMBps {
			t.Fatalf("seed %d: fast path (%v W, %v MB/s) != frontier endpoint (%v W, %v MB/s)",
				seed, fast.TotalPowerW, fast.TotalMBps, slow.TotalPowerW, slow.TotalMBps)
		}
		if !reflect.DeepEqual(fast.Configs, slow.Configs) {
			t.Fatalf("seed %d: fast path configs differ from frontier endpoint", seed)
		}
	}
}

// TestFleetHomogeneousThinned plans 64 devices with SSD2's planning
// points, the composition whose merged frontier outgrows the thinning
// cap. The frontier holds exactly the cap, and thinning keeps both
// endpoints exact: every device at its cheapest point, and every device
// at its peak.
func TestFleetHomogeneousThinned(t *testing.T) {
	const n = 64
	models := make([]*Model, n)
	for d := range models {
		name := fmt.Sprintf("a%03d", d)
		var samples []Sample
		for ps, p := range [][2]float64{{14.4, 3100}, {11.7, 2230}, {9.7, 1590}} {
			samples = append(samples, Sample{
				Config:         Config{Device: name, PowerState: ps, Random: true, Write: true, ChunkBytes: 256 << 10, Depth: 64},
				PowerW:         p[0],
				ThroughputMBps: p[1],
			})
		}
		m, err := NewModel(name, samples)
		if err != nil {
			t.Fatal(err)
		}
		models[d] = m
	}
	f, err := NewFleet(models...)
	if err != nil {
		t.Fatal(err)
	}
	fr := f.ParetoFrontier()
	if len(fr) != maxFrontierPoints {
		t.Fatalf("64 SSD2 frontier has %d points, want the thinning cap %d", len(fr), maxFrontierPoints)
	}
	for _, end := range []struct {
		a  Assignment
		ps int
	}{{fr[0], 2}, {fr[len(fr)-1], 0}} {
		for name, s := range end.a.Configs {
			if s.PowerState != end.ps {
				t.Fatalf("frontier endpoint puts %s at ps%d, want ps%d", name, s.PowerState, end.ps)
			}
		}
		if len(end.a.Configs) != n {
			t.Fatalf("frontier endpoint assigns %d devices, want %d", len(end.a.Configs), n)
		}
	}
}
