package serve

import "sort"

// Planning models: compact per-profile power-throughput models the
// serving engine's budget planner (groupplan.go) plans over, one sample
// per host-selectable power state. The numbers are the calibrated device
// models' measured saturated behavior under the engine's default
// workload (random write, 256 KiB, qd 64, 3 s window) — the same
// operating points a production deployment would load from a powerfleet
// measurement campaign. Planning from a compact model while the full device model
// serves the IO is exactly the paper's split between the modeling study
// (§3.3) and the system that consumes it (§4); the gap between the two
// is what the per-device governors absorb.
type planPoint struct {
	ps     int
	powerW float64
	tputMB float64
}

var planningTable = map[string][]planPoint{
	"SSD1": {{0, 7.9, 3320}, {1, 7.1, 2680}, {2, 5.9, 1910}},
	"SSD2": {{0, 14.4, 3100}, {1, 11.7, 2230}, {2, 9.7, 1590}},
	"SSD3": {{0, 3.1, 500}},
	"HDD":  {{0, 4.3, 80}},
	"EVO":  {{0, 1.9, 350}},
	"C960": {{0, 4.2, 1580}, {1, 4.1, 1580}, {2, 3.8, 1450}},
}

// knownProfiles lists the profiles the planning table covers, sorted —
// the set a fleet spec (or scenario file) may draw devices from.
func knownProfiles() []string {
	out := make([]string, 0, len(planningTable))
	for p := range planningTable {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// profileMaxW returns the highest planning-model power of a profile —
// the per-device contribution to the "never binds" default budget.
func profileMaxW(profile string) float64 {
	var maxW float64
	for _, p := range planningTable[profile] {
		if p.powerW > maxW {
			maxW = p.powerW
		}
	}
	return maxW
}
