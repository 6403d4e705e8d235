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
)

// StandbyRow reports one device's §3.2.2 standby numbers.
type StandbyRow struct {
	Device    string
	IdleW     float64
	StandbyW  float64
	SavedW    float64
	EnterTook time.Duration // command to settled standby power
	ExitTook  time.Duration // wake command to settled idle power
	Supported bool
}

// StandbyStudy measures standby levels and transition times for the two
// devices the paper examines (the HDD and the 860 EVO) and records that
// the data-center SSDs decline standby.
func StandbyStudy(sp *scenario.Spec) ([]StandbyRow, error) {
	var rows []StandbyRow
	for _, name := range []string{"HDD", "EVO", "SSD1", "SSD2", "SSD3"} {
		eng := sim.NewEngine()
		rng := sim.NewRNG(sp.Seed)
		dev, _ := catalog.NewNamed(name, name, eng, rng)
		row := StandbyRow{Device: name}

		row.IdleW = avgPower(eng, rng, dev, 2*time.Second)
		if err := dev.EnterStandby(); err != nil {
			if err == device.ErrNotSupported {
				rows = append(rows, row)
				continue
			}
			return nil, err
		}
		row.Supported = true
		enterAt := eng.Now()
		waitSettled(eng, dev, true)
		row.EnterTook = eng.Now() - enterAt
		row.StandbyW = avgPower(eng, rng, dev, 2*time.Second)
		row.SavedW = row.IdleW - row.StandbyW

		exitAt := eng.Now()
		if err := dev.Wake(); err != nil {
			return nil, err
		}
		waitSettled(eng, dev, false)
		row.ExitTook = eng.Now() - exitAt
		rows = append(rows, row)
	}
	return rows, nil
}

// avgPower measures mean power over a window through the rig.
func avgPower(eng *sim.Engine, rng *sim.RNG, dev device.Device, window time.Duration) float64 {
	rig := measure.NewRig(eng, rng.Stream(fmt.Sprint("probe", eng.Now())), dev)
	rig.Start()
	eng.RunUntil(eng.Now() + window)
	rig.Stop()
	return rig.Trace().Mean()
}

// waitSettled advances time until the device reports the requested
// standby state with no transition in progress.
func waitSettled(eng *sim.Engine, dev device.Device, standby bool) {
	deadline := eng.Now() + 60*time.Second
	for eng.Now() < deadline {
		eng.RunUntil(eng.Now() + 10*time.Millisecond)
		if dev.Standby() == standby && dev.Settled() {
			return
		}
	}
	panic(fmt.Sprintf("experiments: %s never settled (standby=%v)", dev.Name(), standby))
}

func init() {
	register("standby", "§3.2.2 low-power standby levels and transition times", func(sp *scenario.Spec, w io.Writer, _ *CSV) error {
		rows, err := StandbyStudy(sp)
		if err != nil {
			return err
		}
		section(w, "Low-power standby study")
		fmt.Fprintf(w, "%-5s %-9s %-9s %-8s %-10s %s\n", "Dev", "idle(W)", "stdby(W)", "saved(W)", "enter", "exit")
		for _, r := range rows {
			if !r.Supported {
				fmt.Fprintf(w, "%-5s %-9.2f standby not supported (data-center SSD)\n", r.Device, r.IdleW)
				continue
			}
			fmt.Fprintf(w, "%-5s %-9.2f %-9.2f %-8.2f %-10v %v\n",
				r.Device, r.IdleW, r.StandbyW, r.SavedW, r.EnterTook.Round(time.Millisecond), r.ExitTook.Round(time.Millisecond))
		}
		fmt.Fprintln(w, "(paper: HDD 3.76→1.1 W saving 2.66 W, spin transitions up to 10 s;")
		fmt.Fprintln(w, " 860 EVO 0.35→0.17 W within 0.5 s)")
		return nil
	})
}
