package experiments

import (
	"fmt"
	"io"

	"wattio/internal/device"
	"wattio/internal/scenario"
	"wattio/internal/sweep"
	"wattio/internal/workload"
)

// Series is one plotted line: a metric as a function of the swept
// x-axis values (chunk sizes or queue depths).
type Series struct {
	Label string
	X     []int64
	Y     []float64
}

// Figure3 regenerates "SSD2 random write average power under different
// power states" at queue depths 64 and 1: one series per (power state,
// depth) pair, power in watts versus chunk size.
func Figure3(sp *scenario.Spec) ([]Series, error) {
	var out []Series
	for _, depth := range []int{64, 1} {
		for ps := 0; ps < 3; ps++ {
			pts, err := sweep.Run(sweep.Spec{
				Device:      "SSD2",
				PowerStates: []int{ps},
				Ops:         []device.Op{device.OpWrite},
				Patterns:    []workload.Pattern{workload.Rand},
				Chunks:      sweep.PaperChunks(),
				Depths:      []int{depth},
				Runtime:     sp.Horizon(), TotalBytes: sp.Bytes(), Seed: sp.Seed,
			})
			if err != nil {
				return nil, err
			}
			ser := Series{Label: fmt.Sprintf("ps%d qd%d", ps, depth)}
			for _, p := range pts {
				ser.X = append(ser.X, p.Config.ChunkBytes)
				ser.Y = append(ser.Y, p.AvgPowerW)
			}
			out = append(out, ser)
		}
	}
	return out, nil
}

// Figure4 regenerates "SSD2 throughput under different power states"
// (queue depth 64): sequential writes and reads, throughput in MB/s
// versus chunk size, one series per (direction, power state).
func Figure4(sp *scenario.Spec) ([]Series, error) {
	var out []Series
	for _, op := range []device.Op{device.OpWrite, device.OpRead} {
		for ps := 0; ps < 3; ps++ {
			pts, err := sweep.Run(sweep.Spec{
				Device:      "SSD2",
				PowerStates: []int{ps},
				Ops:         []device.Op{op},
				Patterns:    []workload.Pattern{workload.Seq},
				Chunks:      sweep.PaperChunks(),
				Depths:      []int{64},
				Runtime:     sp.Horizon(), TotalBytes: sp.Bytes(), Seed: sp.Seed,
			})
			if err != nil {
				return nil, err
			}
			ser := Series{Label: fmt.Sprintf("seq %s ps%d", op, ps)}
			for _, p := range pts {
				ser.X = append(ser.X, p.Config.ChunkBytes)
				ser.Y = append(ser.Y, p.Result.BandwidthMBps)
			}
			out = append(out, ser)
		}
	}
	return out, nil
}

// latencyFigure runs the Fig. 5/6 protocol: the given op at queue depth
// 1 across chunk sizes and power states, reporting average and p99
// latency normalized to ps0 at the same chunk size.
func latencyFigure(sp *scenario.Spec, op device.Op) (avg, p99 []Series, err error) {
	type cell struct{ avgNs, p99Ns float64 }
	table := make([][]cell, 3)
	for ps := 0; ps < 3; ps++ {
		pts, err := sweep.Run(sweep.Spec{
			Device:      "SSD2",
			PowerStates: []int{ps},
			Ops:         []device.Op{op},
			Patterns:    []workload.Pattern{workload.Rand},
			Chunks:      sweep.PaperChunks(),
			Depths:      []int{1},
			Runtime:     sp.Horizon(), TotalBytes: sp.Bytes(), Seed: sp.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		for _, p := range pts {
			table[ps] = append(table[ps], cell{float64(p.Result.LatAvg), float64(p.Result.LatP99)})
		}
	}
	chunks := sweep.PaperChunks()
	for ps := 0; ps < 3; ps++ {
		a := Series{Label: fmt.Sprintf("ps%d", ps)}
		p := Series{Label: fmt.Sprintf("ps%d", ps)}
		for i, c := range chunks {
			a.X = append(a.X, c)
			p.X = append(p.X, c)
			a.Y = append(a.Y, table[ps][i].avgNs/table[0][i].avgNs)
			p.Y = append(p.Y, table[ps][i].p99Ns/table[0][i].p99Ns)
		}
		avg = append(avg, a)
		p99 = append(p99, p)
	}
	return avg, p99, nil
}

// Figure5 regenerates "SSD2 random write latency (queue depth 1)":
// average and 99th-percentile latency normalized to ps0.
func Figure5(sp *scenario.Spec) (avg, p99 []Series, err error) {
	return latencyFigure(sp, device.OpWrite)
}

// Figure6 regenerates "SSD2 random read latency (queue depth 1)": the
// paper's non-trade-off — latency is flat across power states.
func Figure6(sp *scenario.Spec) (avg, p99 []Series, err error) {
	return latencyFigure(sp, device.OpRead)
}

// DeviceSweep is one device's line in Figs. 8 and 9: power and
// throughput against the swept axis.
type DeviceSweep struct {
	Device string
	X      []int64
	PowerW []float64
	MBps   []float64
}

// Figure8 regenerates "random write power and throughput as chunk size
// varies (queue depth 64)" across all four devices.
func Figure8(sp *scenario.Spec) ([]DeviceSweep, error) {
	return deviceSweep(sp, device.OpWrite, sweep.PaperChunks(), nil)
}

// Figure9 regenerates "random read power and throughput as queue depth
// varies (chunk size 4 KiB)" across all four devices.
func Figure9(sp *scenario.Spec) ([]DeviceSweep, error) {
	return deviceSweep(sp, device.OpRead, nil, sweep.PaperDepths())
}

func deviceSweep(sp *scenario.Spec, op device.Op, chunks []int64, depths []int) ([]DeviceSweep, error) {
	var out []DeviceSweep
	for _, name := range paperDevices {
		spec := sweep.Spec{
			Device:   name,
			Ops:      []device.Op{op},
			Patterns: []workload.Pattern{workload.Rand},
			Runtime:  sp.Horizon(), TotalBytes: sp.Bytes(), Seed: sp.Seed,
		}
		if chunks != nil {
			spec.Chunks = chunks
			spec.Depths = []int{64}
		} else {
			spec.Chunks = []int64{4 << 10}
			spec.Depths = depths
		}
		pts, err := sweep.Run(spec)
		if err != nil {
			return nil, err
		}
		ds := DeviceSweep{Device: name}
		for _, p := range pts {
			if chunks != nil {
				ds.X = append(ds.X, p.Config.ChunkBytes)
			} else {
				ds.X = append(ds.X, int64(p.Config.Depth))
			}
			ds.PowerW = append(ds.PowerW, p.AvgPowerW)
			ds.MBps = append(ds.MBps, p.Result.BandwidthMBps)
		}
		out = append(out, ds)
	}
	return out, nil
}

func writeSeries(w io.Writer, xName string, series []Series) {
	for _, s := range series {
		fmt.Fprintf(w, "%-16s", s.Label)
		for i := range s.X {
			fmt.Fprintf(w, " %s=%.3f", chunkLabel(xName, s.X[i]), s.Y[i])
		}
		fmt.Fprintln(w)
	}
}

func chunkLabel(xName string, v int64) string {
	if xName == "chunk" {
		return fmt.Sprintf("%dKiB", v/1024)
	}
	return fmt.Sprintf("qd%d", v)
}

func init() {
	register("fig3", "Figure 3: SSD2 random write average power under power states", func(sp *scenario.Spec, w io.Writer, csv *CSV) error {
		series, err := Figure3(sp)
		if err != nil {
			return err
		}
		section(w, "Figure 3: SSD2 random write avg power (W) vs chunk size")
		writeSeries(w, "chunk", series)
		chartSeries(w, "Fig. 3: SSD2 random write power", "chunk (KiB, log)", "W", series)
		return csv.add("fig3_power.csv", seriesCSV("chunk_bytes", series))
	})
	register("fig4", "Figure 4: SSD2 sequential throughput under power states (qd 64)", func(sp *scenario.Spec, w io.Writer, csv *CSV) error {
		series, err := Figure4(sp)
		if err != nil {
			return err
		}
		section(w, "Figure 4: SSD2 sequential throughput (MB/s) vs chunk size")
		writeSeries(w, "chunk", series)
		chartSeries(w, "Fig. 4: SSD2 sequential throughput under power states", "chunk (log)", "MB/s", series)
		return csv.add("fig4_throughput.csv", seriesCSV("chunk_bytes", series))
	})
	register("fig5", "Figure 5: SSD2 random write latency under power states (qd 1)", func(sp *scenario.Spec, w io.Writer, csv *CSV) error {
		avg, p99, err := Figure5(sp)
		if err != nil {
			return err
		}
		section(w, "Figure 5a: SSD2 random write avg latency (normalized to ps0)")
		writeSeries(w, "chunk", avg)
		section(w, "Figure 5b: SSD2 random write p99 latency (normalized to ps0)")
		writeSeries(w, "chunk", p99)
		chartSeries(w, "Fig. 5b: SSD2 random write p99 latency vs ps0", "chunk (log)", "ratio", p99)
		return latencyCSV(csv, "fig5", avg, p99)
	})
	register("fig6", "Figure 6: SSD2 random read latency under power states (qd 1)", func(sp *scenario.Spec, w io.Writer, csv *CSV) error {
		avg, p99, err := Figure6(sp)
		if err != nil {
			return err
		}
		section(w, "Figure 6a: SSD2 random read avg latency (normalized to ps0)")
		writeSeries(w, "chunk", avg)
		section(w, "Figure 6b: SSD2 random read p99 latency (normalized to ps0)")
		writeSeries(w, "chunk", p99)
		return latencyCSV(csv, "fig6", avg, p99)
	})
	register("fig8", "Figure 8: random write power and throughput vs chunk size (qd 64)", func(sp *scenario.Spec, w io.Writer, csv *CSV) error {
		sweeps, err := Figure8(sp)
		if err != nil {
			return err
		}
		section(w, "Figure 8: random write vs chunk size (qd 64)")
		writeDeviceSweeps(w, "chunk", sweeps)
		chartDeviceSweeps(w, "Fig. 8: random write (qd 64)", "chunk (log)", sweeps)
		return csv.add("fig8.csv", sweepsCSV("chunk_bytes", sweeps))
	})
	register("fig9", "Figure 9: random read power and throughput vs IO depth (4 KiB)", func(sp *scenario.Spec, w io.Writer, csv *CSV) error {
		sweeps, err := Figure9(sp)
		if err != nil {
			return err
		}
		section(w, "Figure 9: random read vs IO depth (4 KiB)")
		writeDeviceSweeps(w, "depth", sweeps)
		chartDeviceSweeps(w, "Fig. 9: random read (4 KiB)", "depth (log)", sweeps)
		return csv.add("fig9.csv", sweepsCSV("depth", sweeps))
	})
}

// latencyCSV adds a Fig. 5/6 pair: <id>a_avg.csv and <id>b_p99.csv.
func latencyCSV(csv *CSV, id string, avg, p99 []Series) error {
	if err := csv.add(id+"a_avg.csv", seriesCSV("chunk_bytes", avg)); err != nil {
		return err
	}
	return csv.add(id+"b_p99.csv", seriesCSV("chunk_bytes", p99))
}

func writeDeviceSweeps(w io.Writer, xName string, sweeps []DeviceSweep) {
	for _, ds := range sweeps {
		fmt.Fprintf(w, "%-5s power(W): ", ds.Device)
		for i := range ds.X {
			fmt.Fprintf(w, " %s=%.2f", chunkLabel(xName, ds.X[i]), ds.PowerW[i])
		}
		fmt.Fprintf(w, "\n%-5s tput(MB/s):", ds.Device)
		for i := range ds.X {
			fmt.Fprintf(w, " %s=%.1f", chunkLabel(xName, ds.X[i]), ds.MBps[i])
		}
		fmt.Fprintln(w)
	}
}
