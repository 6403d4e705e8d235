package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"wattio/internal/detcheck"
	"wattio/internal/scenario"
	"wattio/internal/serve"
	"wattio/internal/telemetry"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs and the workloads' scenario files are.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// shortSpec is a workload cut to a short horizon (budget steps scale
// with it; churn and rate steps are dropped), cheap enough to repeat.
func shortSpec(t *testing.T, name string, horizon time.Duration) serve.Spec {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := w.base()
	if err != nil {
		t.Fatal(err)
	}
	sp.Runtime = scenario.Duration(horizon)
	sp.Fleet.ControlPeriod = scenario.Duration(horizon / 4)
	sp.Fleet.Churn, sp.Fleet.Arrivals = nil, nil
	spec, err := sp.ServeSpec(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func runDigest(spec serve.Spec) (string, error) {
	rep, err := serve.Run(spec)
	if err != nil {
		return "", err
	}
	return digest(rep)
}

// TestDigestIndependentOfProcs: a short run's report digest is the same
// at GOMAXPROCS=1 and at the host's CPU count, so digest comparison
// between repeats measures determinism, not scheduling.
func TestDigestIndependentOfProcs(t *testing.T) {
	for _, name := range []string{"pure-1k", "group-1m"} {
		t.Run(name, func(t *testing.T) {
			spec := shortSpec(t, name, 40*time.Millisecond)
			detcheck.Assert(t, func() (string, error) { return runDigest(spec) },
				detcheck.Config[string]{Procs: []int{1, runtime.NumCPU()}})
		})
	}
}

// TestDigestCatchesPerturbation: changing any one reported number, by
// as little as one unit in the last place, changes the digest, and the
// bench counts the differing repeat as failed.
func TestDigestCatchesPerturbation(t *testing.T) {
	rep, err := serve.Run(shortSpec(t, "pure-1k", 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := digest(rep)
	if err != nil {
		t.Fatal(err)
	}
	perturb := map[string]func(r *serve.Report){
		"completed":  func(r *serve.Report) { r.Completed++ },
		"p99":        func(r *serve.Report) { r.LatP99++ },
		"throughput": func(r *serve.Report) { r.ThroughputMBps = math.Nextafter(r.ThroughputMBps, math.Inf(1)) },
		"interval": func(r *serve.Report) {
			iv := append([]serve.Interval(nil), r.Intervals...)
			iv[len(iv)-1].AchievedW = math.Nextafter(iv[len(iv)-1].AchievedW, 0)
			r.Intervals = iv
		},
	}
	for name, f := range perturb {
		bad := *rep
		f(&bad)
		d, err := digest(&bad)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{digests: map[string]string{}}
		if err := b.checkDigest("run", ref); err != nil {
			t.Fatal(err)
		}
		if err := b.checkDigest("run", ref); err != nil {
			t.Errorf("identical repeat rejected: %v", err)
		}
		if err := b.checkDigest("run", d); err == nil {
			t.Errorf("%s: perturbed report passed the digest comparison", name)
		}
	}
}

// TestGatesCatchRedReports: every red probe fails the run.
func TestGatesCatchRedReports(t *testing.T) {
	spec := shortSpec(t, "pure-1k", 40*time.Millisecond)
	green := serve.Report{CapOK: true, TrackOK: true, MesoDriftOK: true, Completed: 1}
	if err := gates(spec, &green); err != nil {
		t.Fatalf("green report failed: %v", err)
	}
	for name, f := range map[string]func(r *serve.Report){
		"cap":   func(r *serve.Report) { r.CapOK = false },
		"track": func(r *serve.Report) { r.TrackOK = false },
		"drift": func(r *serve.Report) { r.MesoDriftOK = false },
		"idle":  func(r *serve.Report) { r.Completed = 0 },
		"churn": func(r *serve.Report) { r.ChurnAdds = 1 },
	} {
		red := green
		f(&red)
		if gates(spec, &red) == nil {
			t.Errorf("%s: red report passed the gates", name)
		}
	}
}

// TestSettleUsesNeighbouringReferences: an operation's host speed comes
// from the reference timings just before and just after it, not from
// ones further away.
func TestSettleUsesNeighbouringReferences(t *testing.T) {
	s := time.Second
	// settle adds one more timing at the present, 20 s after this start.
	b := &bench{start: time.Now().Add(-20 * s), refs: []refSample{
		{0, s, 1.0},
		{2 * s, 3 * s, 2 * refNominal}, // just before the operation
		{9 * s, 10 * s, refNominal},    // just after it
		{11 * s, 12 * s, 1.0},
	}}
	o := &outcome{start: 4 * s, end: 8 * s}
	b.settle([]*outcome{o})
	if want := 1 / 1.5; math.Abs(o.speed-want) > 1e-12 {
		t.Fatalf("speed %v, want %v", o.speed, want)
	}
}

// TestSetupSpecCut: the set-up run keeps the fleet and drops everything
// that happens after t=0.
func TestSetupSpecCut(t *testing.T) {
	src, err := workloads[3].source(42)
	if err != nil {
		t.Fatal(err)
	}
	full, err := build(src)
	if err != nil {
		t.Fatal(err)
	}
	cut := setupSpec(full)
	if cut.Size != full.Size || cut.Horizon != time.Millisecond || cut.ControlPeriod != time.Millisecond ||
		len(cut.Budget) > 1 || len(cut.Rates) != 1 || cut.Churn != nil {
		t.Fatalf("setup cut of %s: %+v", workloads[3].name, cut)
	}
	if len(full.Churn) == 0 || len(full.Rates) < 2 {
		t.Fatalf("the cut dropped the original's churn or rates")
	}
}

// TestPlanTableMatchesEngine: ssd2Plan, the probes' copy of the
// engine's private SSD2 planning table, agrees with the budgets the
// engine derives from its own table. An SSD2 fleet with no budget gets
// the never-binding default, 1% over its devices' highest planning
// power, and a budget just over its devices' lowest planning power is
// feasible while one just under it is not.
func TestPlanTableMatchesEngine(t *testing.T) {
	const n = 4
	var maxW, minW float64 = 0, math.Inf(1)
	for _, p := range ssd2Plan {
		maxW, minW = max(maxW, p.w), min(minW, p.w)
	}
	base := serve.Spec{Profiles: []string{"SSD2"}, Size: n, Shards: 1, Seed: 1,
		Horizon: 10 * time.Millisecond, ControlPeriod: 10 * time.Millisecond}
	rep, err := serve.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Intervals[0].BudgetW, n*maxW*1.01; math.Abs(got-want) > 1e-9*want {
		t.Errorf("default budget %v W, want %v W from the copied table", got, want)
	}
	for _, c := range []struct {
		fleetW     float64
		infeasible bool
	}{{n * minW * 1.001, false}, {n * minW * 0.999, true}} {
		sp := base
		sp.Budget = []serve.BudgetStep{{At: 0, FleetW: c.fleetW}}
		rep, err := serve.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Infeasible > 0; got != c.infeasible {
			t.Errorf("budget %v W over %d SSD2s: infeasible %v, want %v", c.fleetW, n, got, c.infeasible)
		}
	}
}

// TestKernelShapeMatchesPure1k: the kernel probe's traffic is pure-1k's.
// A traced pure-1k run at seed 42 peaks at kernelSources pending heap
// events, and kernelMeanDelay is that depth over the events one shard
// dispatches per simulated second, both within 5%.
func TestKernelShapeMatchesPure1k(t *testing.T) {
	if testing.Short() {
		t.Skip("runs pure-1k in full")
	}
	spec, err := workloadSpec("pure-1k", 42)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	rep, err := serve.Run(spec)
	telemetry.SetDefault(nil)
	if err != nil {
		t.Fatal(err)
	}
	depth := float64(reg.Gauge("sim_heap_depth").Max())
	rate := float64(rep.Events) / float64(rep.Shards) / rep.SimulatedDur.Seconds()
	delay := time.Duration(depth / rate * 1e9)
	t.Logf("pure-1k: heap depth %v, %d events over %d shards in %v: %.4g events/s per shard, mean delay %v",
		depth, rep.Events, rep.Shards, rep.SimulatedDur, rate, delay)
	if math.Abs(depth/kernelSources-1) > 0.05 || math.Abs(float64(delay)/float64(kernelMeanDelay)-1) > 0.05 {
		t.Errorf("kernel probe shape %d sources, mean delay %v; pure-1k's is %v, %v", kernelSources, kernelMeanDelay, depth, delay)
	}
}

// TestManifest: BENCHMARK.json is the manifest the tables generate, and
// it stays inside the limits its readers accept.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `bash perfbench/run.sh --manifest BENCHMARK.json`")
	}
	m := buildManifest()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var maxBound, setupBound float64
	for _, e := range m.EndToEnd {
		checkName(e.Name)
		if !unitRE.MatchString(e.Unit) || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", e.Name, e.Unit, e.Bound)
		}
		maxBound = max(maxBound, e.Bound)
		if e.Name == "setup_s" {
			setupBound = e.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, l := range m.PerLayer {
		checkName(l.Name)
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("per-layer %s: unit %q", l.Name, l.Unit)
		}
	}
}
