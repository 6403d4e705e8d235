// Package experiments defines one reproducible experiment per table and
// figure in the paper's evaluation, each regenerating the rows or series
// the paper reports. Every experiment runs from one validated scenario
// spec (internal/scenario): the spec carries the run's bounds and seeds,
// and the fleet stanza the serving experiments read. The paper's
// drives and fio-style jobs are fixed here, as the paper fixes them.
// Each experiment is one registry entry that computes once and renders
// twice: the text report to its writer and, for the figures, CSV files
// to an optional sink. cmd/powerbench runs them from the command line
// and bench_test.go wraps each in a testing.B benchmark.
package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"wattio/internal/scenario"
)

// Experiment is one regenerable paper artifact. Run takes a validated
// spec and reads its bounds from it: the run length from Horizon, the
// per-point byte bound from Bytes, and the seeds from Seed and
// FaultSeed. It prints its report to w and adds its tabular data, if
// it has any, to csv, which may be nil.
type Experiment struct {
	ID    string
	Title string
	Run   func(sp *scenario.Spec, w io.Writer, csv *CSV) error
}

// CSV collects one run's CSV files for external plotting. A nil *CSV
// discards them, so experiments add their files unconditionally.
type CSV struct {
	Dir   string   // existing directory the files are written into
	Files []string // paths written, in order
}

// add writes one file into the sink's directory; fill writes its rows.
func (c *CSV) add(name string, fill func(io.Writer) error) error {
	if c == nil {
		return nil
	}
	path := filepath.Join(c.Dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// The buffer keeps the first failed write, so Flush reports what
	// the fill functions' unchecked prints dropped.
	bw := bufio.NewWriter(f)
	err = fill(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	c.Files = append(c.Files, path)
	return nil
}

var registry = map[string]Experiment{}

func register(id, title string, run func(*scenario.Spec, io.Writer, *CSV) error) {
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
