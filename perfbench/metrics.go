package main

import (
	"encoding/json"
	"os"
)

// metric is one reported number. src says what it measures: "host" is
// time or memory the user waits for or pays, "sim" is what the modelled
// fleet did (deterministic for a fixed seed), "count" is a
// deterministic work count. bound applies to end-to-end metrics only:
// the share of the parent's median by which the metric may worsen
// before a change counts as a regression. Host timings are reported at
// reference speed (see ref.go).
type metric struct {
	name, unit, better, src string
	bound                   float64
}

// endToEnd is what a user of the fleet simulator sees, reported with
// tracing off.
var endToEnd = []metric{
	{"wall_s", "s", "lower", "host", 0.25},
	{"setup_s", "s", "lower", "host", 0.25},
	{"peak_rss_mb", "MB", "lower", "host", 0.2},
	{"alloc_mb", "MB", "lower", "host", 0.05},
	{"model_MBps", "MB/s", "higher", "sim", 0.02},
	{"model_MB_per_J", "MB/J", "higher", "sim", 0.02},
	{"model_p99_ms", "ms", "lower", "sim", 0.05},
	{"model_admit_pct", "%", "higher", "sim", 0.005},
}

// perLayer is the per-layer breakdown, reported by the traced pass.
var perLayer = []metric{
	{name: "serve.events", unit: "count", better: "lower", src: "count"},
	{name: "serve.ns_per_event", unit: "ns", better: "lower", src: "host"},
	{name: "serve.ios_per_batch", unit: "count", better: "higher", src: "sim"},
	{name: "serve.sim_dev_s_per_s", unit: "dev-s/s", better: "higher", src: "host"},
	{name: "serve.reject_pct", unit: "%", better: "lower", src: "sim"},
	{name: "serve.churn_adds", unit: "count", better: "higher", src: "count"},
	{name: "serve.churn_removes", unit: "count", better: "higher", src: "count"},
	{name: "serve.warmup_p50_ms", unit: "ms", better: "lower", src: "sim"},
	{name: "serve.drain_max_ms", unit: "ms", better: "lower", src: "sim"},
	{name: "sim.kernel_ns_per_event", unit: "ns", better: "lower", src: "host"},
	{name: "sim.chain_ns_per_event", unit: "ns", better: "lower", src: "host"},
	{name: "sim.heap_depth_max", unit: "count", better: "lower", src: "count"},
	{name: "sim.stopped_frac", unit: "frac", better: "lower", src: "count"},
	{name: "ssd.ns_per_io", unit: "ns", better: "lower", src: "host"},
	{name: "ssd.page_programs", unit: "count", better: "lower", src: "count"},
	{name: "ssd.regulator_stalls", unit: "count", better: "lower", src: "count"},
	{name: "ssd.throttle_releases", unit: "count", better: "lower", src: "count"},
	{name: "fault.injected", unit: "count", better: "lower", src: "count"},
	{name: "fault.dropout_held", unit: "count", better: "lower", src: "count"},
	{name: "adaptive.replans", unit: "count", better: "lower", src: "count"},
	{name: "adaptive.infeasible", unit: "count", better: "lower", src: "count"},
	{name: "adaptive.compensations", unit: "count", better: "lower", src: "count"},
	{name: "adaptive.gov_steps", unit: "count", better: "lower", src: "count"},
	{name: "adaptive.gov_retries", unit: "count", better: "lower", src: "count"},
	{name: "adaptive.gov_failures", unit: "count", better: "lower", src: "count"},
	{name: "adaptive.failovers", unit: "count", better: "lower", src: "count"},
	{name: "adaptive.wakes", unit: "count", better: "lower", src: "count"},
	{name: "adaptive.over_W", unit: "W", better: "lower", src: "sim"},
	{name: "adaptive.apply_ms", unit: "ms", better: "lower", src: "host"},
	{name: "core.frontier_ms", unit: "ms", better: "lower", src: "host"},
	{name: "core.frontier_points", unit: "count", better: "lower", src: "count"},
	{name: "meso.dehydrations", unit: "count", better: "lower", src: "count"},
	{name: "meso.rehydrations", unit: "count", better: "lower", src: "count"},
	{name: "meso.parked_periods", unit: "count", better: "higher", src: "count"},
	{name: "meso.parked_frac", unit: "frac", better: "higher", src: "count"},
	{name: "meso.drift_pct", unit: "%", better: "lower", src: "sim"},
	{name: "meso.pool_ns_per_op", unit: "ns", better: "lower", src: "host"},
	{name: "meso.group_lanes", unit: "count", better: "higher", src: "count"},
	{name: "meso.group_buckets", unit: "count", better: "lower", src: "count"},
	{name: "meso.group_scans", unit: "count", better: "lower", src: "count"},
	{name: "meso.group_ns_per_op", unit: "ns", better: "lower", src: "host"},
	{name: "meso.bytes_per_device", unit: "B", better: "lower", src: "host"},
	{name: "scenario.build_ms", unit: "ms", better: "lower", src: "host"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", src: "host"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", src: "host"},
	{name: "runtime.cpu_s", unit: "s", better: "lower", src: "host"},
	{name: "runtime.parallel_eff", unit: "frac", better: "higher", src: "host"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", src: "host"},
	{name: "bench.host_speed", unit: "x", better: "higher", src: "host"},
}

// runSeconds is how long one benchmark invocation measures.
const runSeconds = 6

// manifest is BENCHMARK.json: how to run the benchmark and what it
// reports. It is generated from the tables above (--manifest) so the
// file and the code cannot drift apart.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestWL    `json:"workloads"`
	EndToEnd   []manifestE2E   `json:"end_to_end"`
	PerLayer   []manifestLayer `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.name, w.why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestE2E{e.name, e.unit, e.better, e.bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{l.name, l.unit, l.better})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func writeManifest(path string) error {
	b, err := manifestJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
