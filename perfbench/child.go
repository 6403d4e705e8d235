package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wattio/internal/serve"
	"wattio/internal/telemetry"
)

// Child kinds: each measured operation runs in its own process so a
// panic, an error or a red gate costs one failed operation rather than
// the whole benchmark, and so peak RSS and CPU time are the operation's
// own.
const (
	kindSetup  = "setup"  // spec build plus serve.Run of the cut fleet
	kindRun    = "run"    // spec build plus the full serve.Run, tracing off
	kindRunMem = "runmem" // kindRun with a heap watcher, the traced pass's baseline
	kindTraced = "traced" // kindRunMem with the telemetry registry installed
	probePre   = "probe:" // prefix of an isolated layer probe, e.g. "probe:sim"
)

// childResult is what a child prints as its only line of standard output.
type childResult struct {
	Reason     string             `json:"reason,omitempty"` // non-empty: a gate failed
	Digest     string             `json:"digest,omitempty"`
	Report     *serve.Report      `json:"report,omitempty"`
	BuildNS    int64              `json:"build_ns,omitempty"`
	RunNS      int64              `json:"run_ns,omitempty"`
	AllocBytes uint64             `json:"alloc_bytes,omitempty"`
	GCCycles   uint32             `json:"gc_cycles,omitempty"`
	GCPauseNS  uint64             `json:"gc_pause_ns,omitempty"`
	PeakHeap   uint64             `json:"peak_heap,omitempty"` // sampled live heap, with a heap watcher
	PeakRSS    uint64             `json:"peak_rss,omitempty"`
	Counters   map[string]int64   `json:"counters,omitempty"` // registry counters of a traced run, or a probe's counts
	Probe      map[string]float64 `json:"probe,omitempty"`    // a probe's host timings
	Spans      []span             `json:"spans,omitempty"`
}

// span is one timed phase inside a child, in nanoseconds since the
// child started.
type span struct {
	Name       string `json:"name"`
	Start, End int64
}

// tracedCounters are the registry series the traced pass reads.
var tracedCounters = []string{
	"sim_events_dispatched_total",
	"sim_events_stopped_total",
	"ssd_page_programs_total",
	"ssd_regulator_stalls_total",
	"ssd_throttle_releases_total",
	"fault_injected_total",
	"fault_dropout_held_total",
}

// runChild performs one operation of the given kind and returns its
// result. An error means the operation failed outright.
func runChild(kind string, w *workload, seed uint64) (*childResult, error) {
	if name, ok := strings.CutPrefix(kind, probePre); ok {
		return runProbe(name, seed)
	}
	switch kind {
	case kindSetup, kindRun, kindRunMem, kindTraced:
		return runServe(kind, w, seed)
	}
	return nil, fmt.Errorf("unknown child kind %q", kind)
}

// runServe times the spec build and one serve.Run of the workload.
func runServe(kind string, w *workload, seed uint64) (*childResult, error) {
	start := time.Now()
	res := &childResult{}
	mark := func(name string, t0 time.Time) {
		res.Spans = append(res.Spans, span{name, t0.Sub(start).Nanoseconds(), time.Since(start).Nanoseconds()})
	}

	src, err := w.source(seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	spec, err := build(src)
	res.BuildNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, err
	}
	mark("scenario.build", t0)

	runName := "serve.Run"
	if kind == kindSetup {
		spec = setupSpec(spec)
		runName = "serve.Run setup"
		touchHeap(setupHeapBytes)
	}
	var reg *telemetry.Registry
	if kind == kindTraced {
		reg = telemetry.NewRegistry()
		telemetry.SetDefault(reg)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var mw *telemetry.MemWatch
	if kind == kindRunMem || kind == kindTraced {
		mw = telemetry.WatchMem(20 * time.Millisecond)
	}
	t1 := time.Now()
	rep, err := serve.Run(spec)
	res.RunNS = time.Since(t1).Nanoseconds()
	if mw != nil {
		res.PeakHeap, _ = mw.Stop()
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	mark(runName, t1)
	if res.PeakRSS, err = peakRSS(); err != nil {
		return nil, err
	}
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	res.Report = rep
	if res.Digest, err = digest(rep); err != nil {
		return nil, err
	}
	if kind != kindSetup {
		if err := gates(spec, rep); err != nil {
			res.Reason = err.Error()
		}
	}
	if reg != nil {
		res.Counters = map[string]int64{"sim_heap_depth_max": reg.Gauge("sim_heap_depth").Max()}
		for _, name := range tracedCounters {
			res.Counters[name] = reg.Counter(name).Value()
		}
		if got := res.Counters["sim_events_dispatched_total"]; uint64(got) != rep.Events {
			res.Reason = fmt.Sprintf("registry counted %d dispatched events, report %d", got, rep.Events)
		}
	}
	return res, nil
}

// setupHeapBytes is how much heap a set-up child makes resident before
// its timed run. The cheap workloads' set-ups last milliseconds and
// allocate ~20 MB. On a shared 2-vCPU VM the page faults of that first
// touch took ~30% of their time and varied with neighbouring load much
// more than the reference work does, so set-ups run on heap already
// resident. Full runs cannot: it would raise the
// peak RSS they report.
const setupHeapBytes = 32 << 20

// touchHeap allocates n bytes and writes one byte per page, so the heap
// the next allocations reuse is resident.
func touchHeap(n int) {
	buf := make([]byte, n)
	for i := 0; i < n; i += 4096 {
		buf[i] = 1
	}
}

// peakRSS is this process's peak resident set size in bytes (VmHWM).
// The child reads it itself: the rusage its parent gets on Linux also
// counts the parent's own resident memory at the fork that started it.
func peakRSS() (uint64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// digest fingerprints a report. encoding/json writes floats in their
// shortest exact form, so equal digests mean bit-identical reports.
func digest(rep *serve.Report) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// gates checks a full run's report for the outcomes every workload
// must reach: green probes, served traffic, and the tier and churn
// bookkeeping the spec asked for.
func gates(sp serve.Spec, rep *serve.Report) error {
	switch {
	case !rep.CapOK:
		return fmt.Errorf("power-cap probe red (worst %.3f W over)", rep.CapWorstW)
	case !rep.TrackOK:
		return fmt.Errorf("budget tracking red (worst %.3f W over)", rep.WorstOverW)
	case !rep.MesoDriftOK:
		return fmt.Errorf("meso drift red (worst %.4f)", rep.MesoWorstDriftFrac)
	case rep.Completed == 0:
		return fmt.Errorf("no request completed")
	case sp.MesoGroupMin > 0 && rep.MesoGroupLanes == 0:
		return fmt.Errorf("group parking virtualized no lane")
	}
	var adds, removes int
	for _, ev := range sp.Churn {
		adds += ev.Add
		removes += ev.Remove
	}
	if rep.ChurnAdds != adds || rep.ChurnRemoves != removes {
		return fmt.Errorf("churn applied %d adds and %d removes, spec has %d and %d", rep.ChurnAdds, rep.ChurnRemoves, adds, removes)
	}
	if removes > 0 && rep.DrainMax >= sp.Horizon {
		return fmt.Errorf("drain took %v, past the horizon %v", rep.DrainMax, sp.Horizon)
	}
	return nil
}
