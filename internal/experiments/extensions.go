package experiments

import (
	"fmt"
	"io"
	"time"

	"wattio/internal/adaptive"
	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/scenario"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

// This file holds extension experiments beyond the paper's figures,
// exercising the §4 discussion the paper could not evaluate:
//
//   - prop: power proportionality via power-aware IO redirection
//     (cf. SRCMap) — the paper's footnote 1 distinguishes adaptivity
//     from proportionality; redirection turns the former into the
//     latter.
//   - §4.1's co-throttling observation falls out of the same data: at
//     low request rates (e.g. after CPU throttling), consolidation +
//     standby beats spreading load thin across awake devices.

// PropRow is one offered-load level of the proportionality study.
type PropRow struct {
	LoadPct     int
	OfferedIOPS float64
	Active      int // consolidated active-set size

	SpreadW   float64 // all replicas awake
	ConsolW   float64 // active set scaled to load
	SpreadP99 time.Duration
	ConsolP99 time.Duration
}

// Proportionality measures ensemble power and tail latency for a
// 4-replica mirrored EVO set under open-loop random reads, comparing
// "spread" (all awake) against "consolidate" (active set sized to the
// load, the rest in ALPM slumber).
func Proportionality(sp *scenario.Spec) ([]PropRow, error) {
	// One replica sustains ~8k 4 KiB random read IOPS; size load
	// levels against the 4-replica aggregate.
	const perReplicaIOPS = 8000.0
	const replicas = 4
	levels := []int{5, 10, 25, 50, 75, 100}
	rows := make([]PropRow, 0, len(levels))
	for _, pct := range levels {
		offered := perReplicaIOPS * replicas * float64(pct) / 100 * 0.9 // 90% of saturation at full load
		active := (pct*replicas + 99) / 100
		if active < 1 {
			active = 1
		}
		if active > replicas {
			active = replicas
		}
		row := PropRow{LoadPct: pct, OfferedIOPS: offered, Active: active}
		var err error
		if row.SpreadW, row.SpreadP99, err = propRun(sp, replicas, replicas, offered); err != nil {
			return nil, err
		}
		if row.ConsolW, row.ConsolP99, err = propRun(sp, replicas, active, offered); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// propRun measures one (active set, offered load) cell.
func propRun(sp *scenario.Spec, replicas, active int, iops float64) (avgW float64, p99 time.Duration, err error) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(sp.Seed)
	devs := make([]device.Device, replicas)
	for i := range devs {
		devs[i] = catalog.NewEVO(eng, rng.Stream(fmt.Sprint("replica", i)))
	}
	mirror, err := adaptive.NewRedirector("mirror", devs, active)
	if err != nil {
		return 0, 0, err
	}
	eng.RunUntil(eng.Now() + time.Second) // let standby transitions settle

	dur := sp.Horizon()
	if dur > 5*time.Second {
		dur = 5 * time.Second
	}
	e0, t0 := mirror.EnergyJ(), eng.Now()
	res := workload.Run(eng, mirror, workload.Job{
		Op: device.OpRead, Pattern: workload.Rand, BS: 4 << 10,
		Arrival: workload.OpenPoisson, RateIOPS: iops, Runtime: dur,
	}, rng)
	avgW = (mirror.EnergyJ() - e0) / (eng.Now() - t0).Seconds()
	return avgW, res.LatP99, nil
}

func init() {
	register("prop", "Extension: power proportionality via IO redirection (cf. SRCMap, §4)", func(sp *scenario.Spec, w io.Writer, _ *CSV) error {
		rows, err := Proportionality(sp)
		if err != nil {
			return err
		}
		section(w, "Extension: power proportionality (4 mirrored EVOs, open-loop 4 KiB reads)")
		fmt.Fprintf(w, "%-6s %-9s %-7s %-10s %-12s %-12s %s\n",
			"load%", "IOPS", "active", "spread(W)", "consol(W)", "p99 spread", "p99 consol")
		for _, r := range rows {
			fmt.Fprintf(w, "%-6d %-9.0f %-7d %-10.3f %-12.3f %-12v %v\n",
				r.LoadPct, r.OfferedIOPS, r.Active, r.SpreadW, r.ConsolW,
				r.SpreadP99.Round(time.Microsecond), r.ConsolP99.Round(time.Microsecond))
		}
		fmt.Fprintln(w, "\n§4.1 reading: at low request rates (CPU-throttled periods), consolidation +")
		fmt.Fprintln(w, "standby draws less than spreading the load across awake devices, at a bounded")
		fmt.Fprintln(w, "tail-latency cost — redirection is preferred over per-device IO shaping there.")
		return nil
	})
}
