package experiments

import (
	"fmt"
	"io"

	"wattio/internal/core"
	"wattio/internal/device"
	"wattio/internal/scenario"
	"wattio/internal/sweep"
	"wattio/internal/workload"
)

// Figure10 builds the paper's random-write power-throughput models:
// the full chunk × depth grid for every device, including SSD2's (and
// SSD1's) power states. Figure 10a plots all devices normalized;
// Figure 10b isolates SSD2's power states.
func Figure10(sp *scenario.Spec) (map[string]*core.Model, error) {
	models := map[string]*core.Model{}
	for _, name := range paperDevices {
		m, err := sweep.BuildModel(name, device.OpWrite, workload.Rand, sp.Seed, sp.Horizon(), sp.Bytes())
		if err != nil {
			return nil, err
		}
		models[name] = m
	}
	return models, nil
}

// Headline holds the §3.3 headline numbers derived from the Fig. 10
// models.
type Headline struct {
	// SSD2DynamicRange is the paper's 59.4% claim: SSD2's power dynamic
	// range as a fraction of its maximum average power.
	SSD2DynamicRange float64
	// HDDThroughputFloor is the paper's "drop to 4% of maximum":
	// minimum over maximum normalized throughput for the HDD.
	HDDThroughputFloor float64
	// Curtailment is the worked SSD1 example: from qd 64 / 256 KiB,
	// reduce power 20% and curtail the throughput difference.
	Curtailment core.CurtailmentPlan
}

// ComputeHeadline derives the headline numbers from Fig. 10 models.
func ComputeHeadline(models map[string]*core.Model) (Headline, error) {
	var h Headline
	ssd2, ok := models["SSD2"]
	if !ok {
		return h, fmt.Errorf("experiments: missing SSD2 model")
	}
	h.SSD2DynamicRange = ssd2.DynamicRangeFrac()

	hdd, ok := models["HDD"]
	if !ok {
		return h, fmt.Errorf("experiments: missing HDD model")
	}
	minT := hdd.MaxThroughputMBps()
	for _, smp := range hdd.Samples() {
		if smp.ThroughputMBps < minT {
			minT = smp.ThroughputMBps
		}
	}
	h.HDDThroughputFloor = minT / hdd.MaxThroughputMBps()

	ssd1, ok := models["SSD1"]
	if !ok {
		return h, fmt.Errorf("experiments: missing SSD1 model")
	}
	var from core.Sample
	found := false
	for _, smp := range ssd1.Samples() {
		if smp.PowerState == 0 && smp.Depth == 64 && smp.ChunkBytes == 256<<10 {
			from, found = smp, true
			break
		}
	}
	if !found {
		return h, fmt.Errorf("experiments: SSD1 qd64/256KiB point missing from model")
	}
	plan, err := ssd1.Curtail(from, 0.20)
	if err != nil {
		return h, err
	}
	h.Curtailment = plan
	return h, nil
}

func init() {
	register("fig10", "Figure 10: power-throughput model for random write", func(sp *scenario.Spec, w io.Writer, csv *CSV) error {
		models, err := Figure10(sp)
		if err != nil {
			return err
		}
		section(w, "Figure 10a: normalized power vs throughput (all devices)")
		for _, name := range paperDevices {
			m := models[name]
			fmt.Fprintf(w, "%s: %d points, power range %.2f-%.2fW (dynamic range %.1f%%), max tput %.1f MB/s\n",
				name, len(m.Samples()), m.MinPowerW(), m.MaxPowerW(), 100*m.DynamicRangeFrac(), m.MaxThroughputMBps())
			for _, p := range m.Normalized() {
				fmt.Fprintf(w, "  tput=%.3f power=%.3f  (%v)\n", p.Throughput, p.Power, p.Sample.Config)
			}
		}
		chartModels(w, "Fig. 10a: normalized power-throughput model (random write)", models, paperDevices)
		section(w, "Figure 10b: SSD2 by power state")
		for ps := 0; ps < 3; ps++ {
			sub, err := models["SSD2"].Filter(func(x core.Sample) bool { return x.PowerState == ps })
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "ps%d: %d points, power %.2f-%.2fW, tput ≤ %.1f MB/s\n",
				ps, len(sub.Samples()), sub.MinPowerW(), sub.MaxPowerW(), sub.MaxThroughputMBps())
		}
		for _, name := range paperDevices {
			if err := csv.add("fig10_"+name+".csv", modelCSV(models[name])); err != nil {
				return err
			}
		}
		return nil
	})
	register("headline", "§3.3 headline numbers (dynamic range, HDD floor, curtailment example)", func(sp *scenario.Spec, w io.Writer, _ *CSV) error {
		models, err := Figure10(sp)
		if err != nil {
			return err
		}
		h, err := ComputeHeadline(models)
		if err != nil {
			return err
		}
		section(w, "Headline numbers")
		fmt.Fprintf(w, "SSD2 power dynamic range: %.1f%% of max power (paper: 59.4%%)\n", 100*h.SSD2DynamicRange)
		fmt.Fprintf(w, "HDD throughput floor: %.1f%% of max (paper: ~4%%)\n", 100*h.HDDThroughputFloor)
		c := h.Curtailment
		fmt.Fprintf(w, "SSD1 curtailment example: from %v (%.2fW, %.0f MB/s)\n", c.From.Config, c.From.PowerW, c.From.ThroughputMBps)
		fmt.Fprintf(w, "  → %v (%.2fW, %.0f MB/s)\n", c.To.Config, c.To.PowerW, c.To.ThroughputMBps)
		fmt.Fprintf(w, "  power saved %.2fW (%.0f%%), curtail %.2f GiB/s best-effort, keep %.0f%% throughput\n",
			c.PowerSavedW, 100*c.PowerReduction, c.CurtailMBps/1073.74, 100*c.ThroughputKept)
		fmt.Fprintf(w, "  (paper: 20%% power cut → 40%% throughput cut → 1.3 GiB/s best-effort curtailment)\n")
		return nil
	})
}
