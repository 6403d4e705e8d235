// Command powerbench regenerates the paper's tables and figures on the
// simulated testbed. Each experiment prints the same rows or series the
// paper reports, at either the published scale (-scale paper: one
// minute or 4 GiB per point) or a fast scale for smoke runs.
//
// Every run is driven by a declarative scenario spec (internal/scenario):
// -scenario loads one from a JSON file, otherwise the experiment's
// built-in default spec is used. The classic flags (-exp, -scale, -seed,
// -fleet, -budget, ...) override fields of that spec, the fleet flags
// those of its fleet stanza: an explicitly-set flag beats the spec, zero
// included, and an unset flag leaves it alone. The spec is validated
// once, after every flag is applied, and is all an experiment reads.
//
// Usage:
//
//	powerbench -list
//	powerbench -exp fig4
//	powerbench -exp all -scale paper -out results.txt
//	powerbench -scenario scenarios/paper-default.json
//	powerbench -scenario scenarios/stepped-budget.json -fleet 128
//	powerbench -exp fig10 -csvdir out/
//	powerbench -exp fig2 -trace trace.json -metrics
//	powerbench -exp chaos -faultseed 7 -metrics
//	powerbench -exp fleet -fleet 1000 -budget "0s:14.6pd,1s:10.5pd" -fleetfaults 0.1
//	powerbench -exp fleet -cpuprofile cpu.prof -memprofile mem.prof
//
// Profiles (-cpuprofile, -memprofile) are host-dependent by nature and
// are written to their own files after the run; a -out results file
// remains bit-identical across runs whether or not they are enabled.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"wattio/internal/experiments"
	"wattio/internal/scenario"
	"wattio/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: it parses argv, layers
// explicitly-set flags over the scenario spec, runs the selected
// experiments, and returns the process exit code (0 ok, 1 run or write
// failure, 2 usage/spec error).
func run(argv []string, stdout, errw io.Writer) (code int) {
	fs := flag.NewFlagSet("powerbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		expID    = fs.String("exp", "all", "experiment id (see -list) or \"all\"")
		scenFile = fs.String("scenario", "", "load a scenario spec file (JSON); other flags become overrides on top of it")
		scale    = fs.String("scale", "quick", "experiment scale: quick or paper")
		list     = fs.Bool("list", false, "list experiments and exit")
		out      = fs.String("out", "", "also write results to this file")
		csvDir   = fs.String("csvdir", "", "also write figure data as CSV files into this directory")
		seed     = fs.Uint64("seed", 42, "root random seed")
		fseed    = fs.Uint64("faultseed", 1, "fault-injection random seed (chaos experiment)")
		traceF   = fs.String("trace", "", "write a Chrome trace-event JSON (chrome://tracing) of the run to this file")
		metrics  = fs.Bool("metrics", false, "print a telemetry metrics snapshot after the run")

		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile (after the run) to this file")

		fleetSize   = fs.Int("fleet", 0, "overrides fleet.size: device count")
		fleetRepl   = fs.Int("replicas", 0, "overrides fleet.replicas: replicas per mirror group")
		fleetRate   = fs.Float64("rate", 0, "overrides fleet.rate_iops: arrival rate in IOPS per serving device")
		fleetBudget = fs.String("budget", "", "overrides fleet.budget: budget schedule, e.g. \"0s:640,1s:448\" (\"pd\" suffix = per device)")
		fleetFaults = fs.Float64("fleetfaults", 0, "overrides fleet.fault_frac: fraction of devices given an injected fault window")
		fleetMeso   = fs.Bool("meso", false, "overrides fleet.meso.enable: serve steady lanes through the mesoscale analytic tier")
		mesoGroup   = fs.Int("mesogroup", 0, "overrides fleet.meso.group_min: group-park cohorts of at least this many devices behind probe lanes (0 = off; implies -meso)")
		mesoProbes  = fs.Int("mesoprobes", 0, "overrides fleet.meso.probes: resident probe lanes per group-parked cohort (implies -meso; needs -mesogroup)")
		memWatch    = fs.Bool("mem", false, "print peak live-heap bytes and object count after the run (terminal only; host-dependent)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-9s %s\n", e.ID, e.Title)
		}
		return 0
	}

	// Flags are overrides, the spec is the base layer: only flags the
	// user explicitly set on the command line beat the scenario.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var sp *scenario.Spec
	if *scenFile != "" {
		var err error
		sp, err = scenario.LoadFile(*scenFile)
		if err != nil {
			fmt.Fprintf(errw, "powerbench: %v\n", err)
			return 2
		}
	} else {
		sp = scenario.Default(*expID)
	}
	if set["exp"] {
		sp.Experiment = *expID
	}
	if set["scale"] {
		sp.Scale = *scale
	}
	if set["seed"] {
		sp.Seed = *seed
	}
	if set["faultseed"] {
		sp.FaultSeed = *fseed
	}
	// The fleet flags override the spec's fleet stanza by the same rule;
	// -mesogroup and -mesoprobes also turn the meso tier on.
	for _, name := range []string{"fleet", "replicas", "rate", "budget", "fleetfaults", "meso", "mesogroup", "mesoprobes"} {
		if set[name] && sp.Fleet == nil {
			sp.Fleet = &scenario.FleetSpec{}
		}
	}
	if set["fleet"] {
		sp.Fleet.Size = *fleetSize
	}
	if set["replicas"] {
		sp.Fleet.Replicas = *fleetRepl
	}
	if set["rate"] {
		sp.Fleet.RateIOPS = *fleetRate
	}
	if set["budget"] {
		sp.Fleet.Budget = *fleetBudget
	}
	if set["fleetfaults"] {
		sp.Fleet.FaultFrac = *fleetFaults
	}
	if set["meso"] || set["mesogroup"] || set["mesoprobes"] {
		if sp.Fleet.Meso == nil {
			sp.Fleet.Meso = &scenario.MesoSpec{}
		}
		sp.Fleet.Meso.Enable = *fleetMeso || set["mesogroup"] || set["mesoprobes"]
	}
	if set["mesogroup"] {
		sp.Fleet.Meso.GroupMin = *mesoGroup
	}
	if set["mesoprobes"] {
		sp.Fleet.Meso.Probes = *mesoProbes
	}
	if err := sp.Validate(); err != nil {
		fmt.Fprintf(errw, "powerbench: %v\n", err)
		return 2
	}
	// A gridded spec describes a whole point family, and powerbench runs
	// exactly one configuration; the campaign executor owns grids.
	if sp.Grid != nil {
		fmt.Fprintf(errw, "powerbench: %s is a campaign spec (grid stanza); run it with `powerfleet campaign -scenario %s`\n",
			sp.Name, *scenFile)
		return 2
	}

	var todo []experiments.Experiment
	if sp.Experiment == "all" {
		todo = experiments.All()
	} else {
		e, ok := experiments.ByID(sp.Experiment)
		if !ok {
			fmt.Fprintf(errw, "powerbench: unknown experiment %q; try -list\n", sp.Experiment)
			return 2
		}
		todo = []experiments.Experiment{e}
	}
	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(errw, "powerbench: %v\n", err)
			return 1
		}
		// The buffer keeps the first failed write, which the
		// experiments' unchecked prints would drop, for Flush to report.
		bw := bufio.NewWriter(f)
		w = io.MultiWriter(stdout, bw)
		defer func() {
			err := bw.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(errw, "powerbench: writing %s: %v\n", *out, err)
				code = 1
			}
		}()
	}

	// Create the CSV directory up front so a bad path fails before the
	// run, as -trace does.
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(errw, "powerbench: %v\n", err)
			return 1
		}
	}

	// Telemetry rides on process-wide defaults: experiments build their
	// engines internally, and every engine picks the defaults up at
	// construction.
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	var traceFile *os.File
	if *metrics {
		reg = telemetry.NewRegistry()
		telemetry.SetDefault(reg)
	}
	if *traceF != "" {
		// Create the output up front so a bad path fails before the run,
		// not after minutes of simulation.
		f, err := os.Create(*traceF)
		if err != nil {
			fmt.Fprintf(errw, "powerbench: %v\n", err)
			return 1
		}
		traceFile = f
		tracer = telemetry.NewTracer(telemetry.DefaultTraceEventCap)
		telemetry.SetDefaultTracer(tracer)
	}

	// Profiling and timing outputs are kept strictly apart from -out:
	// the -out file must stay bit-identical across runs (determinism CI
	// cmps it), while profiles and wall-clock timings are inherently
	// host-dependent. The CPU profile covers the experiment loop and is
	// finalized after it; the heap profile is snapshotted after the run.
	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(errw, "powerbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(errw, "powerbench: %v\n", err)
			return 1
		}
		cpuFile = f
	}
	// Peak-heap sampling is terminal-only for the same reason as the
	// wall-clock lines: the readings are host-dependent, and the -out
	// file must stay bit-identical across runs.
	var mw *telemetry.MemWatch
	if *memWatch {
		mw = telemetry.WatchMem(0)
	}

	for _, e := range todo {
		start := time.Now()
		var csv *experiments.CSV
		if *csvDir != "" {
			csv = &experiments.CSV{Dir: *csvDir}
		}
		if err := e.Run(sp, w, csv); err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			fmt.Fprintf(errw, "powerbench: %s: %v\n", e.ID, err)
			return 1
		}
		if csv != nil {
			for _, f := range csv.Files {
				fmt.Fprintf(w, "wrote %s\n", f)
			}
		}
		// Wall-clock timing is the one nondeterministic line; it goes to
		// the terminal only so a -out file stays bit-identical across
		// runs (the determinism CI jobs cmp those files directly).
		fmt.Fprintf(stdout, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if mw != nil {
		alloc, objs := mw.Stop()
		fmt.Fprintf(stdout, "[mem: peak heap %.1f MiB, %d live objects]\n", float64(alloc)/(1<<20), objs)
	}

	if tracer != nil {
		err := tracer.WriteJSON(traceFile)
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(errw, "powerbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(w, "wrote %s (%d events", *traceF, tracer.Len())
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(w, ", %d dropped at cap", d)
		}
		fmt.Fprintln(w, ")")
	}
	if reg != nil {
		fmt.Fprintln(w, "\n# telemetry snapshot")
		if err := reg.Snapshot().WriteText(w); err != nil {
			fmt.Fprintf(errw, "powerbench: writing metrics: %v\n", err)
			return 1
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err == nil {
			runtime.GC() // settle allocations so the heap profile reflects live data
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(errw, "powerbench: writing heap profile: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *memProfile)
	}
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fmt.Fprintf(errw, "powerbench: writing cpu profile: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *cpuProfile)
	}
	return 0
}
