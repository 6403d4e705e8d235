package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"wattio/internal/serve"
	"wattio/internal/telemetry"
)

const (
	maxRuns   = 200               // full runs per invocation, at most
	killGrace = 150 * time.Second // a child still running this long after the deadline is killed
	refEvery  = 2 * time.Second   // most time between reference timings
)

// bench runs one workload's measured operations and accounts for them.
type bench struct {
	w                 *workload
	seed              uint64
	start, deadline   time.Time
	tracer            *telemetry.Tracer // nil unless --trace 1
	attempted, failed int
	// digests holds the first report digest seen per class ("setup",
	// "run"); every later report of the class must match it.
	digests map[string]string
	refs    []refSample
}

// refSample is one timing of the reference work, placed in time since
// the bench started.
type refSample struct {
	start, end time.Duration
	sec        float64
}

// outcome is one successful child operation.
type outcome struct {
	res        *childResult
	start, end time.Duration // since the bench started
	cpu        time.Duration // child user+system CPU time
	// speed is the host's speed around the operation relative to
	// reference speed (above 1 is faster); set by settle.
	speed float64
}

// spawn runs one operation in a child process. It returns nil, counted
// as a failed operation, when the child crashes, errors, fails a gate
// or reports an unexpected digest.
func (b *bench) spawn(kind string) *outcome {
	if n := len(b.refs); n == 0 || time.Since(b.start)-b.refs[n-1].end >= refEvery {
		b.calibrate()
	}
	b.attempted++
	o, err := b.exec(kind)
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s %s failed: %v\n", b.w.name, kind, err)
		return nil
	}
	return o
}

func (b *bench) exec(kind string) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithDeadline(context.Background(), b.deadline.Add(killGrace))
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--child", kind, "--workload", b.w.name, "--seed", strconv.FormatUint(b.seed, 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Since(b.start)
	err = cmd.Run()
	end := time.Since(b.start)
	b.tracer.Span("bench", "child", kind, start, end)
	if err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	for _, s := range res.Spans {
		b.tracer.Span("child", "phase", s.Name, start+time.Duration(s.Start), start+time.Duration(s.End))
	}
	if res.Reason != "" {
		return nil, errors.New(res.Reason)
	}
	if res.Digest != "" {
		class := "run"
		if kind == kindSetup {
			class = "setup"
		}
		if err := b.checkDigest(class, res.Digest); err != nil {
			return nil, err
		}
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("no resource usage for the child process")
	}
	return &outcome{
		res:   &res,
		start: start,
		end:   end,
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}, nil
}

// checkDigest records the first digest of a class and rejects any later
// one that differs: repeats of one spec must give bit-identical reports.
func (b *bench) checkDigest(class, d string) error {
	ref, ok := b.digests[class]
	if !ok {
		b.digests[class] = d
		return nil
	}
	if d != ref {
		return fmt.Errorf("report digest %s differs from the first %s report's %s", d, class, ref)
	}
	return nil
}

// calibrate times the host-speed reference once.
func (b *bench) calibrate() {
	start := time.Since(b.start)
	d := refWork()
	end := time.Since(b.start)
	b.refs = append(b.refs, refSample{start, end, d.Seconds()})
	b.tracer.Span("bench", "reference", "reference", start, end)
}

// settle takes a last reference timing and gives every outcome the host
// speed around it: refNominal over the mean of the reference timings
// just before and just after it.
func (b *bench) settle(groups ...[]*outcome) {
	b.calibrate()
	for _, g := range groups {
		for _, o := range g {
			var before, after []float64
			for _, r := range b.refs {
				if r.end <= o.start {
					before = []float64{r.sec}
				}
				if r.start >= o.end && after == nil {
					after = []float64{r.sec}
				}
			}
			o.speed = refNominal / mean(append(before, after...))
		}
	}
}

// untilDeadline calls op least times, then keeps calling it while one
// more call as slow as the slowest so far would still end by the
// deadline, up to most calls in all.
func (b *bench) untilDeadline(least, most int, deadline time.Time, op func()) {
	var slowest time.Duration
	for n := 0; n < most; n++ {
		if n >= least && time.Now().Add(slowest).After(deadline) {
			return
		}
		t0 := time.Now()
		op()
		slowest = max(slowest, time.Since(t0))
	}
}

// collect spawns kind and keeps the outcome when it succeeded.
func (b *bench) collect(kind string, into *[]*outcome) {
	if o := b.spawn(kind); o != nil {
		*into = append(*into, o)
	}
}

func (b *bench) endToEnd() (map[string]float64, error) {
	// Set-ups and full runs alternate, so both sample the host's speed
	// over the whole invocation rather than over different stretches.
	var setups, runs []*outcome
	b.untilDeadline(b.w.runs, maxRuns, b.deadline, func() {
		b.collect(kindSetup, &setups)
		b.collect(kindRun, &runs)
	})
	if len(setups) == 0 || len(runs) == 0 {
		return nil, fmt.Errorf("%s: no successful set-up or run", b.w.name)
	}
	b.settle(setups, runs)
	fmt.Fprintf(os.Stderr, "perfbench: %s as timed: wall_s %.4g at speed %.3g; setup_s %.4g at speed %.3g\n", b.w.name,
		each(runs, runS), each(runs, speed), each(setups, setupS), each(setups, speed))
	rep := runs[0].res.Report
	return map[string]float64{
		"wall_s":          medianBy(runs, atRef(runS)),
		"setup_s":         medianBy(setups, atRef(setupS)),
		"peak_rss_mb":     medianBy(runs, func(o *outcome) float64 { return float64(o.res.PeakRSS) / 1e6 }),
		"alloc_mb":        medianBy(runs, func(o *outcome) float64 { return float64(o.res.AllocBytes) / 1e6 }),
		"model_MBps":      rep.ThroughputMBps,
		"model_MB_per_J":  ratio(rep.ThroughputMBps, rep.AvgPowerW),
		"model_p99_ms":    ms(rep.LatP99),
		"model_admit_pct": 100 * ratio(float64(rep.Admitted), float64(rep.Offered)),
	}, nil
}

func (b *bench) perLayer() (map[string]float64, error) {
	var setups, probed, traced, plain []*outcome
	b.collect(kindSetup, &setups)
	for _, p := range probes {
		b.collect(probePre+p.name, &probed)
	}
	b.untilDeadline(1, maxRuns, b.deadline, func() {
		b.collect(kindTraced, &traced)
		b.collect(kindRunMem, &plain)
	})
	if len(probed) < len(probes) || len(traced) == 0 || len(plain) == 0 {
		return nil, fmt.Errorf("%s: a probe, the traced pass or the baseline run failed", b.w.name)
	}
	b.settle(setups, probed, traced, plain)
	spec, err := workloadSpec(b.w.name, b.seed)
	if err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	for _, o := range probed {
		for k, v := range o.res.Probe {
			vals[k] = v * o.speed
		}
		for k, v := range o.res.Counters {
			vals[k] = float64(v)
		}
	}
	rep, tc := plain[0].res.Report, traced[0].res.Counters
	wall := medianBy(plain, atRef(runS))
	procs := float64(runtime.GOMAXPROCS(0))
	all := slices.Concat(setups, probed, traced, plain)
	for k, v := range map[string]float64{
		"serve.events":          float64(rep.Events),
		"serve.ns_per_event":    medianBy(plain, atRef(func(o *outcome) float64 { return ratio(float64(o.res.RunNS), float64(rep.Events)) })),
		"serve.ios_per_batch":   ratio(float64(rep.Completed), float64(rep.Batches)),
		"serve.sim_dev_s_per_s": float64(rep.Devices) * rep.SimulatedDur.Seconds() / wall,
		"serve.reject_pct":      100 * ratio(float64(rep.Rejected), float64(rep.Offered)),
		"serve.churn_adds":      float64(rep.ChurnAdds),
		"serve.churn_removes":   float64(rep.ChurnRemoves),
		"serve.warmup_p50_ms":   ms(rep.WarmupP50),
		"serve.drain_max_ms":    ms(rep.DrainMax),

		"sim.heap_depth_max": float64(tc["sim_heap_depth_max"]),
		"sim.stopped_frac":   ratio(float64(tc["sim_events_stopped_total"]), float64(tc["sim_events_dispatched_total"])),

		"ssd.page_programs":     float64(tc["ssd_page_programs_total"]),
		"ssd.regulator_stalls":  float64(tc["ssd_regulator_stalls_total"]),
		"ssd.throttle_releases": float64(tc["ssd_throttle_releases_total"]),
		"fault.injected":        float64(tc["fault_injected_total"]),
		"fault.dropout_held":    float64(tc["fault_dropout_held_total"]),

		"adaptive.replans":       float64(rep.Replans),
		"adaptive.infeasible":    float64(rep.Infeasible),
		"adaptive.compensations": float64(rep.Compensations),
		"adaptive.gov_steps":     float64(rep.GovSteps),
		"adaptive.gov_retries":   float64(rep.GovRetries),
		"adaptive.gov_failures":  float64(rep.GovFailures),
		"adaptive.failovers":     float64(rep.Failovers),
		"adaptive.wakes":         float64(rep.WakesOnDemand),
		"adaptive.over_W":        rep.WorstOverW,

		"meso.dehydrations":     float64(rep.MesoDehydrations),
		"meso.rehydrations":     float64(rep.MesoRehydrations),
		"meso.parked_periods":   float64(rep.MesoParkedPeriods),
		"meso.parked_frac":      ratio(float64(rep.MesoParkedPeriods), liveLanePeriods(spec, rep)),
		"meso.drift_pct":        100 * rep.MesoWorstDriftFrac,
		"meso.group_lanes":      float64(rep.MesoGroupLanes),
		"meso.group_buckets":    float64(rep.MesoGroupBuckets),
		"meso.group_scans":      float64(rep.MesoGroupScans),
		"meso.bytes_per_device": medianBy(plain, func(o *outcome) float64 { return float64(o.res.PeakHeap) }) / float64(rep.Devices),

		"scenario.build_ms":    medianBy(slices.Concat(setups, traced, plain), atRef(func(o *outcome) float64 { return float64(o.res.BuildNS) / 1e6 })),
		"runtime.gc_cycles":    medianBy(plain, func(o *outcome) float64 { return float64(o.res.GCCycles) }),
		"runtime.gc_pause_ms":  medianBy(plain, atRef(func(o *outcome) float64 { return float64(o.res.GCPauseNS) / 1e6 })),
		"runtime.cpu_s":        medianBy(plain, atRef(func(o *outcome) float64 { return o.cpu.Seconds() })),
		"runtime.parallel_eff": medianBy(plain, func(o *outcome) float64 { return o.cpu.Seconds() / ((o.end - o.start).Seconds() * procs) }),

		"bench.trace_overhead_pct": 100 * (medianBy(traced, atRef(runS))/wall - 1),
		"bench.host_speed":         medianBy(all, speed),
	} {
		vals[k] = v
	}
	return vals, nil
}

// liveLanePeriods is the number of (lane, control period) pairs the run
// served: replica groups live at each interval's start, summed.
func liveLanePeriods(sp serve.Spec, rep *serve.Report) float64 {
	var n float64
	for _, iv := range rep.Intervals {
		live := rep.Groups
		for _, ev := range sp.Churn {
			if ev.At <= iv.Start {
				live += ev.Add - ev.Remove
			}
		}
		n += float64(live)
	}
	return n
}

// writeTrace writes the benchmark's spans as Chrome-trace JSON.
func (b *bench) writeTrace() error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.tracer.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}

func runS(o *outcome) float64   { return float64(o.res.RunNS) / 1e9 }
func setupS(o *outcome) float64 { return float64(o.res.BuildNS+o.res.RunNS) / 1e9 }
func speed(o *outcome) float64  { return o.speed }

// atRef converts a host timing of an outcome to reference speed.
func atRef(f func(*outcome) float64) func(*outcome) float64 {
	return func(o *outcome) float64 { return f(o) * o.speed }
}

func medianBy(outs []*outcome, f func(*outcome) float64) float64 { return median(each(outs, f)) }

func each(outs []*outcome, f func(*outcome) float64) []float64 {
	vals := make([]float64, len(outs))
	for i, o := range outs {
		vals[i] = f(o)
	}
	return vals
}

func mean(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
