package experiments

import (
	"fmt"
	"io"
	"time"

	"wattio/internal/scenario"
	"wattio/internal/serve"
)

func init() {
	register("fleet", "Fleet serving: sharded scheduler under a stepped power budget", runFleet)
}

// FleetSpec translates a Scale into the serving-engine spec the fleet
// experiment runs: the attached scenario (or the built-in "fleet"
// scenario when none is attached) materialized through the declarative
// builder, with any non-zero legacy FleetOptions layered on top. The
// result is validated, so an invalid override fails here naming its
// fleet.* path. Exported so bench_test.go benchmarks exactly what
// powerbench runs, and so powerbench can check the fleet up front.
func FleetSpec(s Scale) (serve.Spec, error) {
	sp := s.Scenario
	if sp == nil {
		sp = scenario.BuiltIn("fleet")
	}
	sp = sp.Clone()
	if sp.Fleet == nil {
		sp.Fleet = &scenario.FleetSpec{}
	}
	o := s.Fleet
	if o.Size != 0 {
		sp.Fleet.Size = o.Size
	}
	if o.Replicas != 0 {
		sp.Fleet.Replicas = o.Replicas
	}
	if o.RateIOPS != 0 {
		sp.Fleet.RateIOPS = o.RateIOPS
	}
	if o.Budget != "" {
		sp.Fleet.Budget = o.Budget
	}
	if o.FaultFrac != 0 {
		sp.Fleet.FaultFrac = o.FaultFrac
	}
	if o.Meso || o.MesoGroupMin != 0 {
		if sp.Fleet.Meso == nil {
			sp.Fleet.Meso = &scenario.MesoSpec{}
		}
		sp.Fleet.Meso.Enable = true
	}
	if sp.Fleet.Meso != nil {
		if o.MesoGroupMin != 0 {
			sp.Fleet.Meso.GroupMin = o.MesoGroupMin
		}
		if o.MesoProbes != 0 {
			sp.Fleet.Meso.Probes = o.MesoProbes
		}
	}
	if m := sp.Fleet.Meso; o.MesoProbes != 0 && (m == nil || !m.Enable || m.GroupMin == 0) {
		// Probe lanes only exist in group-parked cohorts: without group
		// parking the count would be dropped (no meso stanza) or refused
		// by its spec path, so name the missing flag here.
		return serve.Spec{}, fmt.Errorf("-mesoprobes %d needs group parking (set -mesogroup)", o.MesoProbes)
	}
	sp.Seed, sp.FaultSeed = s.Seed, s.FaultSeed
	// The overrides can make a valid spec invalid: check the spec that
	// runs, at the horizon it runs for, so an error names its fleet.*
	// path before anything is built.
	sp.Runtime = scenario.Duration(s.Runtime)
	if err := sp.Validate(); err != nil {
		return serve.Spec{}, err
	}
	return sp.ServeSpec(s.Runtime)
}

func runFleet(s Scale, w io.Writer) error {
	spec, err := FleetSpec(s)
	if err != nil {
		return err
	}
	rep, err := serve.Run(spec)
	if err != nil {
		return err
	}

	section(w, "Fleet serving under a stepped power budget")
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
	tol := spec.CapTolFrac
	if tol == 0 {
		tol = serve.DefaultCapTolFrac
	}
	fmt.Fprintf(w, "\npower: avg %.1f W, worst checked overshoot %.1f W, tracking %s (tol %.0f%%)\n",
		rep.AvgPowerW, rep.WorstOverW, okStr(rep.TrackOK), 100*tol)
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

	if !rep.CapOK {
		return fmt.Errorf("fleet: sliding-window power-cap invariant fired: worst window %.1f W", rep.CapWorstW)
	}
	if !rep.TrackOK {
		return fmt.Errorf("fleet: achieved power missed budget by %.1f W", rep.WorstOverW)
	}
	if spec.Meso && !rep.MesoDriftOK {
		return fmt.Errorf("fleet: mesoscale drift probe fired (worst %.4f)", rep.MesoWorstDriftFrac)
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
