// Command powerfleet is the planning front end a power-adaptive storage
// system would run in production: build power-throughput models from
// measurement sweeps (once, offline), save them as JSON, and answer
// budget/SLO/curtailment queries against them at decision time.
//
// Usage:
//
//	powerfleet build -device SSD2 -o ssd2.json
//	powerfleet calibrate -class SSD2 -o ssd2-fitted.json
//	powerfleet info ssd2.json
//	powerfleet plan -budget 20 ssd1.json ssd2.json
//	powerfleet curtail -reduce 0.2 -chunk 256k -depth 64 ssd1.json
//	powerfleet slo -budget 12 -p99 5ms ssd2.json
//	powerfleet scenario scenarios/*.json
//	powerfleet scenario -w scenarios/fleet.json
//	powerfleet campaign -scenario scenarios/campaign.json -parallel 4 -out results/
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wattio/internal/calib"
	"wattio/internal/campaign"
	"wattio/internal/catalog"
	"wattio/internal/core"
	"wattio/internal/device"
	"wattio/internal/scenario"
	"wattio/internal/sweep"
	"wattio/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches a powerfleet invocation; subcommands print results to
// out and return errors instead of exiting, so tests can drive the CLI
// end to end.
func run(argv []string, out, errw io.Writer) int {
	if len(argv) < 1 {
		usage(errw)
		return 2
	}
	cmds := map[string]func([]string, io.Writer) error{
		"build":     func(args []string, out io.Writer) error { return build(args, out, errw) },
		"calibrate": func(args []string, out io.Writer) error { return calibrate(args, out, errw) },
		"info":      info,
		"plan":      plan,
		"curtail":   curtail,
		"slo":       slo,
		"scenario":  scenarioCmd,
		"campaign":  campaignCmd,
	}
	cmd, ok := cmds[argv[0]]
	if !ok {
		usage(errw)
		return 2
	}
	if err := cmd(argv[1:], out); err != nil {
		if err == flag.ErrHelp {
			return 2
		}
		fmt.Fprintf(errw, "powerfleet: %v\n", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  powerfleet build -device <name> -o <file> [-rw randwrite] [-runtime 10s] [-bytes 2147483648] [-seed 42]
  powerfleet calibrate -class <name> -o <file> [-runtime 1.5s] [-warmup 600ms] [-seed 42] [-folds 5]
  powerfleet info <model.json>...
  powerfleet plan -budget <watts> <model.json>...
  powerfleet curtail -reduce <frac> -chunk <bytes> -depth <n> <model.json>
  powerfleet slo [-budget W] [-p99 dur] [-avg dur] [-minmbps N] <model.json>
  powerfleet scenario [-w] <spec.json>...
  powerfleet campaign -scenario <spec.json|builtin> [-parallel N] [-out dir]`)
}

// newFlagSet builds a subcommand flag set that reports parse errors as
// returned errors rather than exiting the process.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// loadModels reads and validates model files. A malformed, truncated,
// or version-skewed file fails with the path attached — it must never
// pass as an empty model and produce a silent zero-value plan.
func loadModels(paths []string) ([]*core.Model, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("need at least one model file")
	}
	out := make([]*core.Model, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		m, err := core.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, m)
	}
	return out, nil
}

func build(args []string, out, errw io.Writer) error {
	fs := newFlagSet("build")
	dev := fs.String("device", "SSD2", "device model: "+strings.Join(catalog.Names(), ", "))
	outPath := fs.String("o", "", "output file (default <device>.json)")
	rw := fs.String("rw", "randwrite", "workload for the grid: randwrite, randread, write, read")
	runtime := fs.Duration("runtime", 10*time.Second, "per-point runtime bound")
	bytes := fs.Int64("bytes", 2<<30, "per-point byte bound")
	seed := fs.Uint64("seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	op, pat := device.OpWrite, workload.Rand
	switch *rw {
	case "randwrite":
	case "randread":
		op = device.OpRead
	case "write":
		pat = workload.Seq
	case "read":
		op, pat = device.OpRead, workload.Seq
	default:
		return fmt.Errorf("unknown -rw %q", *rw)
	}
	fmt.Fprintf(errw, "sweeping %s (%s grid, %v/%d bytes per point)...\n", *dev, *rw, *runtime, *bytes)
	m, err := sweep.BuildModel(*dev, op, pat, *seed, *runtime, *bytes)
	if err != nil {
		return err
	}
	path := *outPath
	if path == "" {
		path = strings.ToLower(*dev) + ".json"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d operating points, power %.2f-%.2f W, max %.0f MB/s\n",
		path, len(m.Samples()), m.MinPowerW(), m.MaxPowerW(), m.MaxThroughputMBps())
	return nil
}

// calibrate fits a learned linear power model to a catalog class by
// sweeping its mechanistic simulator, writes the versioned model file,
// and reports the cross-validated fit quality. A fit that misses the
// calibration gates still writes the file (the summary says so) but
// exits nonzero, so scripts can trust a zero exit to mean a usable
// model.
func calibrate(args []string, out, errw io.Writer) error {
	fs := newFlagSet("calibrate")
	class := fs.String("class", "SSD2", "catalog class to calibrate: "+strings.Join(catalog.Names(), ", "))
	outPath := fs.String("o", "", "output file (default <class>-fitted.json)")
	runtime := fs.Duration("runtime", 0, "per-cell measurement window (0 = default)")
	warmup := fs.Duration("warmup", 0, "unmeasured per-cell warmup (0 = default; negative disables)")
	seed := fs.Uint64("seed", 0, "sweep and cross-validation seed (0 = default)")
	folds := fs.Int("folds", 0, "cross-validation folds (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := calib.Options{PointRuntime: *runtime, Warmup: *warmup, Seed: *seed, Folds: *folds}
	fmt.Fprintf(errw, "calibrating %s against its mechanistic simulator...\n", *class)
	fit, err := calib.FitClass(*class, opt)
	if err != nil {
		return err
	}
	path := *outPath
	if path == "" {
		path = strings.ToLower(*class) + "-fitted.json"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fit.Model.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d power states fit from %d operating points, CV R2 %.4f, MAPE %.2f%%\n",
		path, len(fit.Model.States), len(fit.Records), fit.R2, 100*fit.MAPE)
	if !fit.GatesOK() {
		return fmt.Errorf("%s fit misses calibration gates: R2 %.4f (>= %.2f), MAPE %.4f (<= %.2f)",
			*class, fit.R2, calib.GateR2, fit.MAPE, calib.GateMAPE)
	}
	return nil
}

func info(args []string, out io.Writer) error {
	models, err := loadModels(args)
	if err != nil {
		return err
	}
	for _, m := range models {
		fmt.Fprintf(out, "%s: %d points\n", m.Device(), len(m.Samples()))
		fmt.Fprintf(out, "  power %.2f-%.2f W (dynamic range %.1f%% of max)\n",
			m.MinPowerW(), m.MaxPowerW(), 100*m.DynamicRangeFrac())
		fmt.Fprintf(out, "  throughput ≤ %.0f MB/s\n", m.MaxThroughputMBps())
		fmt.Fprintf(out, "  Pareto frontier:\n")
		for _, s := range m.ParetoFrontier() {
			fmt.Fprintf(out, "    %6.2f W  %8.0f MB/s  %v\n", s.PowerW, s.ThroughputMBps, s.Config)
		}
	}
	return nil
}

func plan(args []string, out io.Writer) error {
	fs := newFlagSet("plan")
	budget := fs.Float64("budget", 0, "fleet power budget in watts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *budget <= 0 {
		return fmt.Errorf("plan needs -budget")
	}
	models, err := loadModels(fs.Args())
	if err != nil {
		return err
	}
	fleet, err := core.NewFleet(models...)
	if err != nil {
		return err
	}
	a, ok := fleet.BestUnderPower(*budget)
	if !ok {
		return fmt.Errorf("no assignment fits %.2f W (fleet minimum is above it)", *budget)
	}
	fmt.Fprintf(out, "budget %.2f W → plan %.2f W, %.0f MB/s\n", *budget, a.TotalPowerW, a.TotalMBps)
	for _, m := range fleet.Models() {
		s := a.Configs[m.Device()]
		fmt.Fprintf(out, "  %-6s ps%d, chunk %d KiB, qd %d  (%.2f W, %.0f MB/s)\n",
			m.Device(), s.PowerState, s.ChunkBytes/1024, s.Depth, s.PowerW, s.ThroughputMBps)
	}
	return nil
}

func curtail(args []string, out io.Writer) error {
	fs := newFlagSet("curtail")
	reduce := fs.Float64("reduce", 0.2, "power reduction fraction (0,1)")
	chunk := fs.Int64("chunk", 256<<10, "current chunk size in bytes")
	depth := fs.Int("depth", 64, "current queue depth")
	ps := fs.Int("ps", 0, "current power state")
	if err := fs.Parse(args); err != nil {
		return err
	}
	models, err := loadModels(fs.Args())
	if err != nil {
		return err
	}
	if len(models) != 1 {
		return fmt.Errorf("curtail takes exactly one model")
	}
	m := models[0]
	var from core.Sample
	found := false
	for _, s := range m.Samples() {
		if s.PowerState == *ps && s.ChunkBytes == *chunk && s.Depth == *depth {
			from, found = s, true
			break
		}
	}
	if !found {
		return fmt.Errorf("no operating point ps%d/%dB/qd%d in the model", *ps, *chunk, *depth)
	}
	planned, err := m.Curtail(from, *reduce)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "from %v: %.2f W, %.0f MB/s\n", planned.From.Config, planned.From.PowerW, planned.From.ThroughputMBps)
	fmt.Fprintf(out, "to   %v: %.2f W, %.0f MB/s\n", planned.To.Config, planned.To.PowerW, planned.To.ThroughputMBps)
	fmt.Fprintf(out, "sheds %.2f W (%.0f%%); curtail %.0f MB/s of best-effort load (keep %.0f%% throughput)\n",
		planned.PowerSavedW, 100*planned.PowerReduction, planned.CurtailMBps, 100*planned.ThroughputKept)
	return nil
}

// scenarioCmd validates scenario spec files — strict parse, semantic
// checks, and the canonical-encoding contract that lets specs serve as
// golden inputs. -w rewrites non-canonical (but valid) files in place;
// without it, drifted files are an error so CI can gate on them.
func scenarioCmd(args []string, out io.Writer) error {
	fs := newFlagSet("scenario")
	write := fs.Bool("w", false, "rewrite valid but non-canonical spec files in place")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("need at least one scenario file")
	}
	var stale []string
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		sp, err := scenario.Parse(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		canon, err := sp.Canonical()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if bytes.Equal(raw, canon) {
			fmt.Fprintf(out, "%s: ok (%s, experiment %s)\n", p, sp.Name, sp.Experiment)
			continue
		}
		if *write {
			if err := os.WriteFile(p, canon, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "%s: rewrote in canonical form\n", p)
			continue
		}
		stale = append(stale, p)
	}
	if len(stale) > 0 {
		return fmt.Errorf("valid but not canonical (rerun with scenario -w to rewrite): %s", strings.Join(stale, ", "))
	}
	return nil
}

// campaignReport is the merged report campaign -out writes.
const campaignReport = "campaign.json"

// campaignCmd expands a gridded scenario spec into its point family and
// runs every point across a worker pool, printing one summary row per
// point in grid order. -out writes the merged canonical report to
// <dir>/campaign.json plus one per-point report, <label>.json, per
// point; both are byte-identical at any -parallel value.
func campaignCmd(args []string, out io.Writer) error {
	fs := newFlagSet("campaign")
	scen := fs.String("scenario", "", "campaign spec: a file path or a built-in scenario name")
	parallel := fs.Int("parallel", 0, "points to run concurrently (0 = one per CPU)")
	outDir := fs.String("out", "", "directory to write campaign.json and per-point reports into")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scen == "" {
		return fmt.Errorf("campaign needs -scenario (a spec file or one of: %s)", strings.Join(scenario.BuiltInNames(), ", "))
	}
	sp, err := loadSpec(*scen)
	if err != nil {
		return err
	}
	// A gridless spec's one point is labelled with the spec's name and
	// written to <out>/<name>.json, so the name must be a plain file
	// name, and not the merged report's.
	if *outDir != "" && sp.Grid == nil {
		if sp.Name == "." || sp.Name == ".." || sp.Name != filepath.Base(sp.Name) {
			return fmt.Errorf("a gridless spec named %q would write its point report outside %s; rename it", sp.Name, *outDir)
		}
		if sp.Name+".json" == campaignReport {
			return fmt.Errorf("a gridless spec named %q would write its point report over %s; rename it", sp.Name, campaignReport)
		}
	}
	rep, err := campaign.Run(sp, *parallel)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "campaign %s: %d points", rep.Campaign, len(rep.Points))
	if len(rep.Axes) > 0 {
		parts := make([]string, len(rep.Axes))
		for i, a := range rep.Axes {
			parts[i] = fmt.Sprintf("%s=%d", a.Key, a.Len)
		}
		fmt.Fprintf(out, " (%s)", strings.Join(parts, " x "))
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-16s %6s %9s %9s %9s %8s %6s\n",
		"point", "devs", "completed", "MB/s", "p99", "avgW", "track")
	for _, p := range rep.Points {
		track := "ok"
		if !p.Report.TrackOK {
			track = "MISS"
		}
		fmt.Fprintf(out, "%-16s %6d %9d %9.1f %9v %8.1f %6s\n",
			p.Label, p.Size, p.Report.Completed, p.Report.ThroughputMBps,
			p.Report.LatP99.Round(10*time.Microsecond), p.Report.AvgPowerW, track)
	}

	if *outDir == "" {
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	merged, err := rep.JSON()
	if err != nil {
		return err
	}
	mergedPath := filepath.Join(*outDir, campaignReport)
	if err := os.WriteFile(mergedPath, merged, 0o644); err != nil {
		return err
	}
	for _, p := range rep.Points {
		b, err := json.MarshalIndent(&p, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*outDir, p.Label+".json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "wrote %s and %d per-point reports\n", mergedPath, len(rep.Points))
	return nil
}

// loadSpec resolves a -scenario argument: an existing file path wins,
// otherwise a built-in scenario name.
func loadSpec(arg string) (*scenario.Spec, error) {
	if _, err := os.Stat(arg); err == nil {
		return scenario.LoadFile(arg)
	}
	if sp := scenario.BuiltIn(arg); sp != nil {
		return sp, nil
	}
	return nil, fmt.Errorf("%s: not a spec file or built-in scenario (have %s)", arg, strings.Join(scenario.BuiltInNames(), ", "))
}

func slo(args []string, out io.Writer) error {
	fs := newFlagSet("slo")
	budget := fs.Float64("budget", 0, "power budget in watts (0 = unconstrained)")
	p99 := fs.Duration("p99", 0, "maximum p99 latency")
	avg := fs.Duration("avg", 0, "maximum average latency")
	minMBps := fs.Float64("minmbps", 0, "minimum throughput")
	if err := fs.Parse(args); err != nil {
		return err
	}
	models, err := loadModels(fs.Args())
	if err != nil {
		return err
	}
	if len(models) != 1 {
		return fmt.Errorf("slo takes exactly one model")
	}
	m := models[0]
	obj := core.SLO{MaxAvgLat: *avg, MaxP99Lat: *p99, MinMBps: *minMBps}
	fmt.Fprintf(out, "SLO: %v\n", obj)
	if *budget > 0 {
		if s, ok := m.BestUnderPowerSLO(*budget, obj); ok {
			fmt.Fprintf(out, "best under %.2f W: %v → %.2f W, %.0f MB/s (p99 %v)\n",
				*budget, s.Config, s.PowerW, s.ThroughputMBps, s.P99Lat)
		} else {
			fmt.Fprintf(out, "no operating point fits %.2f W under this SLO\n", *budget)
		}
		return nil
	}
	if s, ok := m.MinPowerSLO(obj); ok {
		fmt.Fprintf(out, "lowest power meeting SLO: %v → %.2f W, %.0f MB/s (p99 %v)\n",
			s.Config, s.PowerW, s.ThroughputMBps, s.P99Lat)
	} else {
		fmt.Fprintln(out, "no operating point meets this SLO")
	}
	return nil
}
