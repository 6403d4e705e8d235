package experiments

import (
	"fmt"
	"io"

	"wattio/internal/scenario"
	"wattio/internal/serve"
)

func init() {
	register("meso", "Mesoscale aggregation: hybrid analytic tier vs pure event-driven serving", runMeso)
}

// mesoEnergyTolFrac is the acceptance bound on hybrid-vs-pure energy
// agreement. The hybrid's only systematic leak is the dehydration
// transition (a drain plus an idle calibration window serve no
// traffic), which amortizes away on the long builtin horizon.
const mesoEnergyTolFrac = 0.01

// MesoSpec materializes the pair-run serving spec: sp when it carries
// an enabled meso stanza, otherwise the built-in "meso" scenario (whose
// horizon is tuned long enough for the 1% energy-agreement gate). The
// returned spec has the tier ON; the experiment clears Spec.Meso for
// the baseline leg.
func MesoSpec(sp *scenario.Spec) (serve.Spec, error) {
	if sp.Fleet == nil || sp.Fleet.Meso == nil || !sp.Fleet.Meso.Enable {
		sp = scenario.BuiltIn("meso")
	}
	return sp.ServeSpec(sp.Horizon())
}

func runMeso(sp *scenario.Spec, w io.Writer, _ *CSV) error {
	spec, err := MesoSpec(sp)
	if err != nil {
		return err
	}
	base := spec
	base.Meso = false
	pure, err := serve.Run(base)
	if err != nil {
		return err
	}
	hyb, err := serve.Run(spec)
	if err != nil {
		return err
	}

	evRatio := float64(pure.Events) / float64(hyb.Events)
	eAgree := relFrac(hyb.AvgPowerW, pure.AvgPowerW)

	section(w, "Mesoscale aggregation: hybrid analytic tier vs pure event-driven")
	fmt.Fprintf(w, "fleet: %d devices in %d groups across %d shards, horizon %v\n",
		pure.Devices, pure.Groups, pure.Shards, spec.Horizon)
	fmt.Fprintf(w, "events: pure %d, hybrid %d (%.1fx reduction)\n", pure.Events, hyb.Events, evRatio)
	fmt.Fprintf(w, "energy: pure %.1f W avg, hybrid %.1f W avg (disagreement %.2f%%, gate %.0f%%)\n",
		pure.AvgPowerW, hyb.AvgPowerW, 100*eAgree, 100*mesoEnergyTolFrac)
	fmt.Fprintf(w, "throughput: pure %.1f MB/s, hybrid %.1f MB/s (completed %d vs %d)\n",
		pure.ThroughputMBps, hyb.ThroughputMBps, pure.Completed, hyb.Completed)
	fmt.Fprintf(w, "meso: %d dehydrations, %d rehydrations, %d parked periods, %.1f J settled analytically\n",
		hyb.MesoDehydrations, hyb.MesoRehydrations, hyb.MesoParkedPeriods, hyb.MesoAggJ)
	fmt.Fprintf(w, "drift: sentinel probe %s (worst %.4f)   invariants: cap %s, tracking %s\n",
		okStr(hyb.MesoDriftOK), hyb.MesoWorstDriftFrac, okStr(hyb.CapOK), okStr(hyb.TrackOK))

	if hyb.MesoDehydrations == 0 {
		return fmt.Errorf("meso: no lane ever dehydrated — the tier did nothing")
	}
	if hyb.Events*2 >= pure.Events {
		return fmt.Errorf("meso: hybrid dispatched %d events vs pure %d — under 2x reduction", hyb.Events, pure.Events)
	}
	if eAgree > mesoEnergyTolFrac {
		return fmt.Errorf("meso: hybrid energy disagrees with mechanistic by %.2f%% (gate %.0f%%)",
			100*eAgree, 100*mesoEnergyTolFrac)
	}
	if err := verdict("meso: pure leg", base, pure); err != nil {
		return err
	}
	return verdict("meso: hybrid leg", spec, hyb)
}

// relFrac is |a−b| as a fraction of |b|.
func relFrac(a, b float64) float64 {
	d := (a - b) / b
	if d < 0 {
		d = -d
	}
	return d
}
