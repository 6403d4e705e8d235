// Package experiments defines one reproducible experiment per table and
// figure in the paper's evaluation, each regenerating the rows or series
// the paper reports. Every experiment runs from one validated scenario
// spec (internal/scenario): the spec carries the run's bounds and seeds,
// and the parameters of the experiments that read more than those.
// cmd/powerbench runs them from the command line and bench_test.go
// wraps each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"wattio/internal/scenario"
)

// Experiment is one regenerable paper artifact. Run takes a validated
// spec and reads its bounds from it: the run length from Horizon, the
// per-point byte bound from Bytes, and the seeds from Seed and
// FaultSeed.
type Experiment struct {
	ID    string
	Title string
	Run   func(sp *scenario.Spec, w io.Writer) error
}

var registry = map[string]Experiment{}

func register(id, title string, run func(*scenario.Spec, io.Writer) error) {
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
