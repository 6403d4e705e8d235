// Package campaign executes a version-2 scenario campaign: it expands
// the spec's grid stanza into its point family (internal/scenario),
// runs every point's fleet simulation across a worker pool
// (internal/grid), and merges the per-point reports into one campaign
// report in grid order.
//
// Determinism contract: the merged report is a pure function of the
// spec. Points land in fixed index slots and each point's serving run
// is bit-identical regardless of host scheduling (the serve package's
// guarantee), so the campaign report — and its canonical JSON encoding
// — is byte-identical whether the family runs on one worker or many.
// Nothing scheduling-dependent (worker counts, timings, host state) is
// allowed into the report.
package campaign

import (
	"encoding/json"
	"fmt"
	"runtime"

	"wattio/internal/grid"
	"wattio/internal/scenario"
	"wattio/internal/serve"
)

// Axis is one grid axis's shape in the merged report.
type Axis struct {
	Key string `json:"key"`
	Len int    `json:"len"`
}

// Point is one grid point's outcome: its identity within the family
// (label, coordinates, derived seeds), the axis values it resolved to,
// and the full serving report.
type Point struct {
	Label  string `json:"label"`
	Name   string `json:"name"`
	Coords []int  `json:"coords,omitempty"`

	Seed      uint64  `json:"seed"`
	FaultSeed uint64  `json:"fault_seed"`
	Budget    string  `json:"budget,omitempty"`
	Size      int     `json:"size"`
	RateIOPS  float64 `json:"rate_iops"`
	Replicas  int     `json:"replicas"`

	Report *serve.Report `json:"report"`
}

// Report is the merged outcome of a whole campaign.
type Report struct {
	// Campaign is the spec name; Version the spec schema version it was
	// expanded under.
	Campaign string `json:"campaign"`
	Version  int    `json:"version"`
	Seed     uint64 `json:"seed"`
	// Axes is the grid shape in expansion order; empty for a gridless
	// spec (which runs as a single-point campaign).
	Axes []Axis `json:"axes,omitempty"`
	// Points holds one entry per grid point, in expansion
	// (lexicographic-coordinate) order.
	Points []Point `json:"points"`
}

// JSON is the report's canonical encoding: fixed field order, two-space
// indent, trailing newline. Byte-identical across runs of the same
// spec at any worker count.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Run expands the spec and executes every grid point across at most
// parallel workers (parallel < 1 means one per CPU). Any point failure
// aborts the campaign with the point named; a point whose serving run
// violates the power-cap invariant (Report.CapOK false) is a failure —
// a campaign exists to compare points, and a point that broke its cap
// is not comparable. Budget-tracking misses (TrackOK false) are data,
// not errors: curtailment campaigns sweep budgets specifically to find
// where tracking breaks.
func Run(sp *scenario.Spec, parallel int) (*Report, error) {
	pts, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	reports := make([]*serve.Report, len(pts))
	rates := make([]float64, len(pts))
	errs := make([]error, len(pts))
	grid.Pool(len(pts), parallel, func(i int) {
		reports[i], rates[i], errs[i] = runPoint(pts[i].Spec)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("campaign: point %s: %w", pts[i].Label, err)
		}
	}

	out := &Report{Campaign: sp.Name, Version: sp.Version, Seed: sp.Seed}
	if sp.Grid != nil {
		for _, a := range sp.Grid.Axes() {
			out.Axes = append(out.Axes, Axis{Key: a.Key, Len: a.Len})
		}
	}
	out.Points = make([]Point, len(pts))
	for i, pt := range pts {
		p := Point{
			Label:     pt.Label,
			Name:      pt.Spec.Name,
			Coords:    pt.Coords,
			Seed:      pt.Spec.Seed,
			FaultSeed: pt.Spec.FaultSeed,
			Report:    reports[i],
		}
		if fl := pt.Spec.Fleet; fl != nil {
			p.Budget = fl.Budget
		}
		p.Size = reports[i].Devices
		p.Replicas = reports[i].Devices / reports[i].Groups
		p.RateIOPS = rates[i]
		out.Points[i] = p
	}
	return out, nil
}

// runPoint executes one fully-resolved point spec end to end,
// returning the merged serving report and the arrival rate the spec
// resolved to (defaults applied).
func runPoint(sp *scenario.Spec) (*serve.Report, float64, error) {
	ss, err := sp.ServeSpec(sp.Horizon())
	if err != nil {
		return nil, 0, err
	}
	rep, err := serve.Run(ss)
	if err != nil {
		return nil, 0, err
	}
	if !rep.CapOK {
		return nil, 0, fmt.Errorf("power-cap invariant violated (worst excess %.2f W)", rep.CapWorstW)
	}
	return rep, ss.RateIOPS, nil
}
