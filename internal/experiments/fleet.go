package experiments

import (
	"fmt"
	"io"
	"time"

	"wattio/internal/scenario"
	"wattio/internal/serve"
)

func init() {
	register("fleet", "Fleet serving: sharded scheduler under a stepped power budget", func(sp *scenario.Spec, w io.Writer, _ *CSV) error {
		spec, err := FleetSpec(sp)
		if err != nil {
			return err
		}
		return serveFleet(w, "Fleet serving under a stepped power budget", spec)
	})
	register("churn", "Lane lifecycle: membership churn under a diurnal rate schedule", func(sp *scenario.Spec, w io.Writer, _ *CSV) error {
		spec, err := ChurnSpec(sp)
		if err != nil {
			return err
		}
		return serveFleet(w, "Lane lifecycle: membership churn under a diurnal rate schedule", spec)
	})
}

// FleetSpec materializes the serving-engine spec the fleet experiment
// runs: sp's fleet stanza (the defaults when it has none) at sp's
// horizon. Exported so bench_test.go benchmarks exactly what powerbench
// runs.
func FleetSpec(sp *scenario.Spec) (serve.Spec, error) {
	return sp.ServeSpec(sp.Horizon())
}

// ChurnSpec materializes the churn serving spec: sp when it carries a
// churn schedule, otherwise the built-in "churn" scenario (a
// group-parked fleet that scales out for a diurnal peak and drains back
// after it).
func ChurnSpec(sp *scenario.Spec) (serve.Spec, error) {
	if sp.Fleet == nil || len(sp.Fleet.Churn) == 0 {
		sp = scenario.BuiltIn("churn")
	}
	return sp.ServeSpec(sp.Horizon())
}

// serveFleet runs one serving spec, prints its report under the given
// section title, and fails on a broken gate. A spec with churn must
// also admit and retire groups and finish its drains inside the
// horizon.
func serveFleet(w io.Writer, title string, spec serve.Spec) error {
	rep, err := serve.Run(spec)
	if err != nil {
		return err
	}

	section(w, title)
	fmt.Fprintf(w, "fleet: %d devices in %d groups across %d shards (replicas %d, faulted %d)\n",
		rep.Devices, rep.Groups, rep.Shards, rep.Devices/rep.Groups, rep.Faulted)
	fmt.Fprintf(w, "requests: offered %d, admitted %d, rejected %d, completed %d (%d batches)\n",
		rep.Offered, rep.Admitted, rep.Rejected, rep.Completed, rep.Batches)
	fmt.Fprintf(w, "throughput: %.0f MB/s aggregate   latency p50 %v  p99 %v  max %v\n",
		rep.ThroughputMBps, rep.LatP50.Round(time.Microsecond),
		rep.LatP99.Round(time.Microsecond), rep.LatMax.Round(time.Microsecond))

	fmt.Fprintf(w, "\n%-12s %10s %12s %12s\n", "window", "budget W", "achieved W", "tracked")
	for _, seg := range fleetSegments(rep.Intervals) {
		tracked := "-"
		if seg.checked > 0 {
			tracked = fmt.Sprintf("%.1f", seg.checkedW)
		}
		fmt.Fprintf(w, "%-12s %10.1f %12.1f %12s\n",
			fmt.Sprintf("%v+", seg.start.Round(time.Millisecond)), seg.budgetW, seg.avgW, tracked)
	}
	fmt.Fprintf(w, "\npower: avg %.1f W, worst checked overshoot %.1f W, tracking %s (tol %.0f%%)\n",
		rep.AvgPowerW, rep.WorstOverW, okStr(rep.TrackOK), 100*serve.DefaultCapTolFrac)
	fmt.Fprintf(w, "control: %d re-plans (%d infeasible), governor steps %d / retries %d / failures %d, compensations %d\n",
		rep.Replans, rep.Infeasible, rep.GovSteps, rep.GovRetries, rep.GovFailures, rep.Compensations)
	fmt.Fprintf(w, "faults: %d devices faulted, %d failovers, %d wakes on demand\n",
		rep.Faulted, rep.Failovers, rep.WakesOnDemand)
	if spec.Meso {
		fmt.Fprintf(w, "meso: %d dehydrations / %d rehydrations, %d parked periods, %.1f J analytic, drift %s (worst %.4f)\n",
			rep.MesoDehydrations, rep.MesoRehydrations, rep.MesoParkedPeriods, rep.MesoAggJ,
			okStr(rep.MesoDriftOK), rep.MesoWorstDriftFrac)
	}
	if spec.MesoGroupMin > 0 {
		fmt.Fprintf(w, "meso group: %d virtual lanes in %d buckets, %d plan slots scanned, %.1f J aggregate\n",
			rep.MesoGroupLanes, rep.MesoGroupBuckets, rep.MesoGroupScans, rep.MesoGroupJ)
	}
	if len(spec.Churn) > 0 {
		fmt.Fprintf(w, "churn: %d groups admitted / %d retired, warm-up p50 %v max %v, drain p50 %v max %v\n",
			rep.ChurnAdds, rep.ChurnRemoves,
			rep.WarmupP50.Round(time.Millisecond), rep.WarmupMax.Round(time.Millisecond),
			rep.DrainP50.Round(time.Millisecond), rep.DrainMax.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "invariants: power-cap probe %s (worst window %.1f W)\n", okStr(rep.CapOK), rep.CapWorstW)

	if len(spec.Churn) > 0 {
		if rep.ChurnAdds == 0 {
			return fmt.Errorf("churn: no replica group was ever admitted mid-run")
		}
		if rep.ChurnRemoves == 0 {
			return fmt.Errorf("churn: no replica group was ever drained and retired")
		}
		if rep.DrainMax >= spec.Horizon {
			return fmt.Errorf("churn: drain recovery %v never completed inside the horizon %v", rep.DrainMax, spec.Horizon)
		}
	}
	return verdict("fleet", spec, rep)
}

// verdict applies the gates every serving run shares: the
// sliding-window power cap, budget tracking and, when the spec serves
// through the meso tier, the sentinel drift probe.
func verdict(name string, spec serve.Spec, rep *serve.Report) error {
	if !rep.CapOK {
		return fmt.Errorf("%s: sliding-window power-cap invariant fired: worst window %.1f W", name, rep.CapWorstW)
	}
	if !rep.TrackOK {
		return fmt.Errorf("%s: achieved power missed budget by %.1f W", name, rep.WorstOverW)
	}
	if spec.Meso && !rep.MesoDriftOK {
		return fmt.Errorf("%s: mesoscale drift probe fired (worst %.4f)", name, rep.MesoWorstDriftFrac)
	}
	return nil
}

// fleetSegment aggregates the control intervals sharing one budget step.
type fleetSegment struct {
	start    time.Duration
	budgetW  float64
	avgW     float64 // mean achieved over all intervals in the segment
	checkedW float64 // mean achieved over tracked intervals only
	n        int
	checked  int
}

func fleetSegments(ivs []serve.Interval) []fleetSegment {
	var segs []fleetSegment
	for _, iv := range ivs {
		if len(segs) == 0 || segs[len(segs)-1].budgetW != iv.BudgetW {
			segs = append(segs, fleetSegment{start: iv.Start, budgetW: iv.BudgetW})
		}
		s := &segs[len(segs)-1]
		s.avgW += iv.AchievedW
		s.n++
		if iv.Checked {
			s.checkedW += iv.AchievedW
			s.checked++
		}
	}
	for i := range segs {
		segs[i].avgW /= float64(segs[i].n)
		if segs[i].checked > 0 {
			segs[i].checkedW /= float64(segs[i].checked)
		}
	}
	return segs
}

func okStr(ok bool) string {
	if ok {
		return "OK"
	}
	return "FAILED"
}
