package experiments

import (
	"fmt"
	"io"

	"wattio/internal/calib"
	"wattio/internal/scenario"
	"wattio/internal/serve"
)

func init() {
	register("calib", "Learned device models: NNLS calibration, cross-validated fit gates, differential fleet run", runCalib)
}

func runCalib(sp *scenario.Spec, w io.Writer, _ *CSV) error {
	// The run's spec drives the experiment when it carries an
	// enabled calib stanza, else the built-in "calib" scenario does.
	if sp.Fleet == nil || sp.Fleet.Calib == nil || !sp.Fleet.Calib.Enable {
		sp = scenario.BuiltIn("calib")
	}
	profiles := sp.Fleet.Profiles
	if len(profiles) == 0 {
		profiles = []string{"SSD2"}
	}

	section(w, "Learned device models: NNLS calibration with cross-validated gates")
	fmt.Fprintf(w, "%-6s %-7s %-10s %-8s  per-state static W / write nJ/B / read nJ/B\n",
		"class", "states", "CV R2", "MAPE")
	var gateErr error
	for _, p := range profiles {
		f, err := calib.FitClass(p, calib.Options{})
		if err != nil {
			return err
		}
		detail := ""
		for _, st := range f.Model.States {
			detail += fmt.Sprintf("  %.2f/%.2f/%.2f", st.Energy.StaticW,
				st.Energy.WriteByteJ*1e9, st.Energy.ReadByteJ*1e9)
		}
		verdict := "ok"
		if !f.GatesOK() {
			verdict = "FAIL"
			if gateErr == nil {
				gateErr = fmt.Errorf("calib: %s fit misses gates: R2 %.4f (>= %.2f), MAPE %.4f (<= %.2f)",
					p, f.R2, calib.GateR2, f.MAPE, calib.GateMAPE)
			}
		}
		fmt.Fprintf(w, "%-6s %-7d %-10.4f %-7.2f%% %s  [%s]\n",
			p, len(f.Model.States), f.R2, 100*f.MAPE, detail, verdict)
	}
	fmt.Fprintf(w, "gates: CV R2 >= %.2f, MAPE <= %.0f%% for every fitted class\n",
		calib.GateR2, 100*calib.GateMAPE)
	if gateErr != nil {
		return gateErr
	}

	// Differential fleet run: the same scenario served twice, once with
	// mechanistic simulators and once with every profile swapped to its
	// fitted model.
	fittedSpec, err := sp.ServeSpec(sp.Horizon())
	if err != nil {
		return err
	}
	mechSpec := fittedSpec
	mechSpec.Fitted = nil
	mech, err := serve.Run(mechSpec)
	if err != nil {
		return err
	}
	fitted, err := serve.Run(fittedSpec)
	if err != nil {
		return err
	}
	powErr := relFrac(fitted.AvgPowerW, mech.AvgPowerW)
	tputErr := relFrac(fitted.ThroughputMBps, mech.ThroughputMBps)

	section(w, "Differential fleet run: fitted vs mechanistic")
	fmt.Fprintf(w, "fleet: %d devices in %d groups across %d shards, horizon %v\n",
		mech.Devices, mech.Groups, mech.Shards, fittedSpec.Horizon)
	fmt.Fprintf(w, "power: mechanistic %.2f W avg, fitted %.2f W avg (disagreement %.2f%%, gate %.0f%%)\n",
		mech.AvgPowerW, fitted.AvgPowerW, 100*powErr, 100*calib.GateMAPE)
	fmt.Fprintf(w, "throughput: mechanistic %.1f MB/s, fitted %.1f MB/s (disagreement %.2f%%)\n",
		mech.ThroughputMBps, fitted.ThroughputMBps, 100*tputErr)
	fmt.Fprintf(w, "completed: mechanistic %d, fitted %d\n", mech.Completed, fitted.Completed)

	if powErr > calib.GateMAPE {
		return fmt.Errorf("calib: fitted fleet power disagrees with mechanistic by %.2f%% (gate %.0f%%)",
			100*powErr, 100*calib.GateMAPE)
	}
	if fitted.Completed == 0 {
		return fmt.Errorf("calib: fitted fleet completed no IO")
	}
	return nil
}
