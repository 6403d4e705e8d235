// Package experiments defines one reproducible experiment per table and
// figure in the paper's evaluation, each regenerating the rows or series
// the paper reports. cmd/powerbench runs them from the command line and
// bench_test.go wraps each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"wattio/internal/scenario"
)

// Scale bounds each experiment run. Paper scale matches the published
// methodology (one minute or 4 GiB per point); Quick scale shrinks the
// bounds so the full suite runs in seconds for tests.
type Scale struct {
	Runtime    time.Duration
	TotalBytes int64
	Seed       uint64
	// FaultSeed seeds the fault-injection RNG streams of the chaos and
	// fleet experiments, independently of Seed so the same workload can
	// be replayed under different fault draws (and vice versa).
	FaultSeed uint64
	// Fleet carries the serving-engine knobs of the fleet experiment;
	// zero values take that experiment's defaults. Non-zero fields
	// override the attached Scenario (the CLI's flags-beat-spec rule).
	Fleet FleetOptions
	// Scenario optionally carries the full declarative spec the run was
	// launched from; experiments that consume one (fleet, chaos, the
	// modeling sweeps) read their parameters from it. Nil falls back to
	// each experiment's built-in default scenario.
	Scenario *scenario.Spec
}

// FleetOptions parameterizes the fleet serving experiment — the knobs
// cmd/powerbench exposes as flags. Zero values take defaults.
type FleetOptions struct {
	// Size is the number of devices in the fleet.
	Size int
	// Replicas is the mirror-group size (1 = no redirection).
	Replicas int
	// RateIOPS is the open-loop arrival rate per active device.
	RateIOPS float64
	// Budget is a serve.ParseSchedule budget schedule ("0s:640,1s:448",
	// with a "pd" per-device suffix); empty takes a stepped default.
	Budget string
	// FaultFrac is the fraction of devices given an injected fault
	// window, drawn from FaultSeed.
	FaultFrac float64
	// Meso enables the mesoscale aggregation tier (hybrid analytic
	// serving of steady lanes).
	Meso bool
	// MesoGroupMin enables group-level parking on top of the meso tier:
	// cohorts of at least this many interchangeable devices keep only
	// MesoProbes resident probe lanes and account the rest as shared
	// analytic aggregates. Zero keeps every lane materialized.
	MesoGroupMin int
	MesoProbes   int
}

// Paper is the published methodology's scale.
var Paper = Scale{Runtime: time.Minute, TotalBytes: 4 << 30, Seed: 42, FaultSeed: 1}

// Quick is the test-suite scale.
var Quick = Scale{Runtime: 2 * time.Second, TotalBytes: 256 << 20, Seed: 42, FaultSeed: 1}

// ScaleFor translates a validated scenario spec into the Scale the
// experiment runners consume: the spec's scale name picks the base
// bounds, its runtime/total_bytes override them, and its seeds carry
// over verbatim. The spec itself rides along for the experiments that
// read more than bounds from it.
func ScaleFor(sp *scenario.Spec) Scale {
	s := Quick
	if sp.Scale == "paper" {
		s = Paper
	}
	if sp.Runtime > 0 {
		s.Runtime = sp.Runtime.D()
	}
	if sp.TotalBytes > 0 {
		s.TotalBytes = sp.TotalBytes
	}
	s.Seed = sp.Seed
	s.FaultSeed = sp.FaultSeed
	s.Scenario = sp
	return s
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale, w io.Writer) error
}

var registry = map[string]Experiment{}

func register(id, title string, run func(Scale, io.Writer) error) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// section prints a figure/table header the way powerbench reports it.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}
