// Command perfbench is wattio's fleet-engine benchmark. It runs one named
// workload through serve.Run and prints every metric by name and unit,
// ending with one JSON line:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With --trace 0 it reports the end-to-end metrics of untraced runs;
// with --trace 1 it reports the per-layer breakdown from a traced pass,
// timed layer probes and untraced baseline runs, and writes the
// benchmark's own spans as Chrome-trace JSON under .bench_build/trace/.
//
// Every measured operation runs in a child process of this binary, one
// at a time. A child that panics, errors, fails a gate, or returns a
// report whose digest differs from the first run's counts as failed.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload pure-1k --seed 42 --seconds 6 --trace 0
//	bash perfbench/run.sh --manifest BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"wattio/internal/telemetry"
)

func main() { os.Exit(run()) }

func run() int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	wl := flag.String("workload", workloads[0].name, "workload: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 42, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", runSeconds, "seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	child := flag.String("child", "", "run one measured operation of this kind and print its result (the benchmark's own child processes)")
	manifest := flag.String("manifest", "", "write the benchmark manifest to this path and exit")
	flag.Parse()

	if *manifest != "" {
		return exitOn(writeManifest(*manifest))
	}
	w, err := findWorkload(*wl)
	if err != nil {
		return exitOn(err)
	}
	if *child != "" {
		res, err := runChild(*child, w, *seed)
		if err != nil {
			return exitOn(err)
		}
		return exitOn(json.NewEncoder(os.Stdout).Encode(res))
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		return exitOn(fmt.Errorf("--trace must be 0 or 1 and --seconds positive"))
	}

	b := &bench{w: w, seed: *seed, start: time.Now(), digests: map[string]string{}}
	b.deadline = b.start.Add(time.Duration(*seconds) * time.Second)
	table, measure := endToEnd, b.endToEnd
	if *trace == 1 {
		b.tracer = telemetry.NewTracer(0)
		table, measure = perLayer, b.perLayer
	}
	vals, err := measure()
	if err == nil && b.tracer != nil {
		err = b.writeTrace()
	}
	if err != nil {
		return exitOn(err)
	}
	return exitOn(b.report(table, vals))
}

func exitOn(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report prints one line per metric, then the result line.
func (b *bench) report(table []metric, vals map[string]float64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	fmt.Printf("%s seed %d: %d operations, %d failed\n", b.w.name, b.seed, b.attempted, b.failed)
	for _, m := range table {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", m.name)
		}
		out[m.name] = value{v, m.unit}
		fmt.Printf("  %-26s %16.6g %-8s %s\n", m.name, v, m.unit, m.src)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
