package experiments

import (
	"fmt"
	"io"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/measure"
	"wattio/internal/scenario"
	"wattio/internal/sim"
	"wattio/internal/stats"
	"wattio/internal/workload"
)

// paperDevices are the four drives the paper characterizes (Table 1),
// in its rendering order. Table 1 and Figs. 2, 8, 9 and 10 sweep them.
var paperDevices = []string{"SSD1", "SSD2", "SSD3", "HDD"}

// Table1Row is one device row of the paper's Table 1.
type Table1Row struct {
	Label    string
	Protocol string
	Model    string
	MinW     float64 // lowest observed power (standby if supported, else idle)
	MaxW     float64 // highest instantaneous power observed under load
}

// Table1 regenerates the paper's device table: for each device, the
// measured power range. The floor is the lowest sustained level the
// device reaches (standby where supported, idle otherwise); the ceiling
// is the instantaneous peak the rig records under the heaviest
// workloads.
func Table1(sp *scenario.Spec) []Table1Row {
	rows := make([]Table1Row, 0, len(paperDevices))
	for _, name := range paperDevices {
		rows = append(rows, table1Row(name, sp))
	}
	return rows
}

func table1Row(name string, sp *scenario.Spec) Table1Row {
	// Floor: idle (or standby when the device supports it).
	eng := sim.NewEngine()
	rng := sim.NewRNG(sp.Seed)
	dev, _ := catalog.NewNamed(name, name, eng, rng)
	if err := dev.EnterStandby(); err == nil {
		eng.RunUntil(eng.Now() + 15*time.Second) // HDD spin-down takes seconds
	}
	rig := measure.NewRig(eng, rng, dev)
	rig.Start()
	eng.RunUntil(eng.Now() + 2*time.Second)
	rig.Stop()
	minW := rig.Trace().Mean()

	// Ceiling: instantaneous peak across the heavy workloads.
	maxW := 0.0
	for _, job := range []workload.Job{
		{Op: device.OpWrite, Pattern: workload.Rand, BS: 2 << 20, Depth: 64, Runtime: sp.Horizon(), TotalBytes: sp.Bytes()},
		{Op: device.OpRead, Pattern: workload.Rand, BS: 4 << 10, Depth: 1, Runtime: sp.Horizon(), TotalBytes: sp.Bytes() / 64},
	} {
		eng := sim.NewEngine()
		rng := sim.NewRNG(sp.Seed)
		dev, _ := catalog.NewNamed(name, name, eng, rng)
		rig := measure.NewRig(eng, rng, dev)
		rig.Start()
		res := workload.Start(eng, dev, job, rng)
		for !res.Done() && eng.Step() {
		}
		rig.Stop()
		// Report the 99.5th percentile rather than the absolute max so
		// one noisy ADC sample cannot define the range.
		if w := stats.Quantile(rig.Trace().Watts(), 0.995); w > maxW {
			maxW = w
		}
	}
	return Table1Row{
		Label:    name,
		Protocol: dev.Protocol().String(),
		Model:    dev.Model(),
		MinW:     minW,
		MaxW:     maxW,
	}
}

func init() {
	register("table1", "Table 1: evaluated storage devices and measured power ranges", func(sp *scenario.Spec, w io.Writer, _ *CSV) error {
		rows := Table1(sp)
		section(w, "Table 1: Evaluated storage devices")
		fmt.Fprintf(w, "%-6s %-9s %-22s %s\n", "Label", "Protocol", "Model", "Measured Power Range")
		for _, r := range rows {
			fmt.Fprintf(w, "%-6s %-9s %-22s %.1f-%.1fW\n", r.Label, r.Protocol, r.Model, r.MinW, r.MaxW)
		}
		return nil
	})
}
