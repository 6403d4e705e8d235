package experiments

import (
	"fmt"
	"io"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/measure"
	"wattio/internal/sata"
	"wattio/internal/scenario"
	"wattio/internal/sim"
	"wattio/internal/stats"
	"wattio/internal/sweep"
	"wattio/internal/trace"
	"wattio/internal/workload"
)

// Fig2 is the power-measurement example: a millisecond-scale trace of
// SSD1 under random write (Fig. 2a) and the power distribution of every
// device under the same experiment (Fig. 2b).
type Fig2 struct {
	Trace   *trace.PowerTrace        // SSD1, chunk 256 KiB, qd 64
	Violins map[string]stats.Summary // per-device power distributions
}

// Figure2 runs the paper's example experiment (random write, chunk size
// 256 KiB, queue depth 64) on all four devices with full traces.
func Figure2(sp *scenario.Spec) (Fig2, error) {
	out := Fig2{Violins: map[string]stats.Summary{}}
	for _, name := range paperDevices {
		pts, err := sweep.Run(sweep.Spec{
			Device:     name,
			Ops:        []device.Op{device.OpWrite},
			Patterns:   []workload.Pattern{workload.Rand},
			Chunks:     []int64{256 << 10},
			Depths:     []int{64},
			Runtime:    sp.Horizon(),
			TotalBytes: sp.Bytes(),
			Seed:       sp.Seed,
			KeepTrace:  true,
		})
		if err != nil {
			return Fig2{}, err
		}
		out.Violins[name] = pts[0].Trace.Summary()
		if name == "SSD1" {
			out.Trace = pts[0].Trace
		}
	}
	return out, nil
}

// Fig7 is the 860 EVO standby-transition experiment: power traces for
// idle→standby (ALPM SLUMBER issued at 200 ms) and standby→idle (wake
// issued at 400 ms), plus the measured transition completion times.
type Fig7 struct {
	IdleToStandby *trace.PowerTrace
	StandbyToIdle *trace.PowerTrace
	EnterDone     time.Duration // when power settled at slumber level
	ExitDone      time.Duration // when power settled back at idle level
}

// Figure7 regenerates the standby transition traces.
func Figure7(sp *scenario.Spec) (Fig7, error) {
	var out Fig7

	// (a) idle → standby: ALPM SLUMBER at t=200 ms, trace for 1 s.
	{
		eng := sim.NewEngine()
		rng := sim.NewRNG(sp.Seed)
		dev := catalog.NewEVO(eng, rng)
		port, err := sata.NewPort(dev)
		if err != nil {
			return Fig7{}, err
		}
		rig := measure.NewRig(eng, rng, dev)
		rig.Start()
		eng.Post(200*time.Millisecond, func() {
			if err := port.SetLinkPM(sata.LinkSlumber); err != nil {
				panic(err)
			}
		})
		eng.RunUntil(time.Second)
		rig.Stop()
		out.IdleToStandby = rig.Trace()
		out.EnterDone = settleTime(out.IdleToStandby, 0.17, 0.01)
	}

	// (b) standby → idle: wake at t=400 ms, trace for 1 s.
	{
		eng := sim.NewEngine()
		rng := sim.NewRNG(sp.Seed)
		dev := catalog.NewEVO(eng, rng)
		port, err := sata.NewPort(dev)
		if err != nil {
			return Fig7{}, err
		}
		if err := port.SetLinkPM(sata.LinkSlumber); err != nil {
			return Fig7{}, err
		}
		eng.RunUntil(2 * time.Second) // settle into slumber before tracing
		rig := measure.NewRig(eng, rng, dev)
		base := eng.Now()
		rig.Start()
		eng.Post(base+400*time.Millisecond, func() {
			if err := port.SetLinkPM(sata.LinkActive); err != nil {
				panic(err)
			}
		})
		eng.RunUntil(base + time.Second)
		rig.Stop()
		// Re-zero the trace to the capture window for reporting.
		rebased := &trace.PowerTrace{}
		for i := 0; i < rig.Trace().Len(); i++ {
			sm := rig.Trace().At(i)
			rebased.Append(sm.T-base, sm.W)
		}
		out.StandbyToIdle = rebased
		out.ExitDone = settleTime(out.StandbyToIdle, 0.35, 0.02)
	}
	return out, nil
}

// settleTime returns the end of the last 25 ms window whose mean power
// is not within tol of target — i.e., when the transition finished
// settling. Windowed means keep single-sample ADC noise from counting
// as "unsettled". Zero means the trace never left the target level.
func settleTime(tr *trace.PowerTrace, target, tol float64) time.Duration {
	const window = 25 * time.Millisecond
	last := time.Duration(0)
	if tr.Len() == 0 {
		return 0
	}
	end := tr.At(tr.Len() - 1).T
	for t := time.Duration(0); t+window <= end; t += window {
		win := tr.Between(t, t+window)
		if win.Len() == 0 {
			continue
		}
		if m := win.Mean(); m > target+tol || m < target-tol {
			last = t + window
		}
	}
	return last
}

func init() {
	register("fig2", "Figure 2: power measurement example (trace and distribution)", func(sp *scenario.Spec, w io.Writer, csv *CSV) error {
		f, err := Figure2(sp)
		if err != nil {
			return err
		}
		section(w, "Figure 2a: SSD1 random write power trace (first 1.3 s, every 50th ms)")
		for i := 0; i < f.Trace.Len() && f.Trace.At(i).T < 1300*time.Millisecond; i += 50 {
			sm := f.Trace.At(i)
			fmt.Fprintf(w, "t=%4dms %6.2fW\n", sm.T.Milliseconds(), sm.W)
		}
		section(w, "Figure 2b: power distribution per device (violin summary)")
		for _, name := range paperDevices {
			fmt.Fprintf(w, "%-5s %s\n", name, f.Violins[name])
		}
		if err := csv.add("fig2a_trace.csv", f.Trace.WriteCSV); err != nil {
			return err
		}
		return csv.add("fig2b_violins.csv", func(w io.Writer) error {
			fmt.Fprintln(w, "device,n,min,p25,median,mean,p75,p99,max,stddev")
			for _, name := range paperDevices {
				v := f.Violins[name]
				fmt.Fprintf(w, "%s,%d,%.4g,%.4g,%.4g,%.4g,%.4g,%.4g,%.4g,%.4g\n",
					name, v.N, v.Min, v.P25, v.Median, v.Mean, v.P75, v.P99, v.Max, v.Stddev)
			}
			return nil
		})
	})
	register("fig7", "Figure 7: 860 EVO power during standby transitions", func(sp *scenario.Spec, w io.Writer, csv *CSV) error {
		f, err := Figure7(sp)
		if err != nil {
			return err
		}
		section(w, "Figure 7a: idle → standby (SLUMBER at 200 ms)")
		printTraceRows(w, f.IdleToStandby)
		fmt.Fprintf(w, "transition settled at %v (paper: within 0.5 s of the command)\n", f.EnterDone)
		section(w, "Figure 7b: standby → idle (wake at 400 ms)")
		printTraceRows(w, f.StandbyToIdle)
		fmt.Fprintf(w, "transition settled at %v\n", f.ExitDone)
		if err := csv.add("fig7a_enter.csv", f.IdleToStandby.WriteCSV); err != nil {
			return err
		}
		return csv.add("fig7b_exit.csv", f.StandbyToIdle.WriteCSV)
	})
}

func printTraceRows(w io.Writer, tr *trace.PowerTrace) {
	for i := 0; i < tr.Len() && tr.At(i).T < time.Second; i += 25 {
		sm := tr.At(i)
		fmt.Fprintf(w, "t=%4dms %5.3fW\n", sm.T.Milliseconds(), sm.W)
	}
}
