package experiments

import (
	"fmt"
	"io"

	"wattio/internal/core"
	"wattio/internal/plot"
)

// This file gives every figure two extra output forms: ASCII charts,
// rendered inline in the text report, and CSV files for external
// plotting, added to the run's CSV sink. The repository regenerates
// the paper's figures both in a terminal and in a notebook.

// chartSeries renders line series as an ASCII chart.
func chartSeries(w io.Writer, title, xName, yName string, series []Series) {
	c := plot.New(title, 64, 14).Axes(xName, yName).LogX()
	for _, s := range series {
		xs := make([]float64, len(s.X))
		for i, x := range s.X {
			xs[i] = float64(x)
		}
		if err := c.Line(s.Label, xs, s.Y); err != nil {
			fmt.Fprintf(w, "(chart error: %v)\n", err)
			return
		}
	}
	if err := c.Render(w); err != nil {
		fmt.Fprintf(w, "(chart error: %v)\n", err)
	}
}

// chartDeviceSweeps renders Fig. 8/9-style per-device sweeps: one chart
// for power, one for throughput.
func chartDeviceSweeps(w io.Writer, title, xName string, sweeps []DeviceSweep) {
	for _, metric := range []string{"power (W)", "throughput (MB/s)"} {
		c := plot.New(title+" — "+metric, 64, 14).Axes(xName, metric).LogX()
		for _, d := range sweeps {
			xs := make([]float64, len(d.X))
			for i, x := range d.X {
				xs[i] = float64(x)
			}
			ys := d.PowerW
			if metric != "power (W)" {
				ys = d.MBps
			}
			if err := c.Line(d.Device, xs, ys); err != nil {
				fmt.Fprintf(w, "(chart error: %v)\n", err)
				return
			}
		}
		if err := c.Render(w); err != nil {
			fmt.Fprintf(w, "(chart error: %v)\n", err)
		}
	}
}

// chartModels renders the Fig. 10 normalized scatter.
func chartModels(w io.Writer, title string, models map[string]*core.Model, order []string) {
	c := plot.New(title, 64, 18).Axes("normalized throughput", "normalized power").Bounds(0, 1, 0, 1)
	for _, name := range order {
		m, ok := models[name]
		if !ok {
			continue
		}
		var xs, ys []float64
		for _, p := range m.Normalized() {
			xs = append(xs, p.Throughput)
			ys = append(ys, p.Power)
		}
		if err := c.Scatter(name, xs, ys); err != nil {
			fmt.Fprintf(w, "(chart error: %v)\n", err)
			return
		}
	}
	if err := c.Render(w); err != nil {
		fmt.Fprintf(w, "(chart error: %v)\n", err)
	}
}

// seriesCSV writes "x,label1,label2,..." rows for aligned series.
func seriesCSV(xName string, series []Series) func(io.Writer) error {
	return func(w io.Writer) error {
		if len(series) == 0 {
			return fmt.Errorf("experiments: no series to export")
		}
		fmt.Fprintf(w, "%s", xName)
		for _, s := range series {
			fmt.Fprintf(w, ",%s", s.Label)
		}
		fmt.Fprintln(w)
		for i := range series[0].X {
			fmt.Fprintf(w, "%d", series[0].X[i])
			for _, s := range series {
				if i < len(s.Y) {
					fmt.Fprintf(w, ",%.6g", s.Y[i])
				} else {
					fmt.Fprint(w, ",")
				}
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

// sweepsCSV writes device sweeps as long-form rows.
func sweepsCSV(xName string, sweeps []DeviceSweep) func(io.Writer) error {
	return func(w io.Writer) error {
		fmt.Fprintf(w, "device,%s,power_w,mbps\n", xName)
		for _, d := range sweeps {
			for i := range d.X {
				fmt.Fprintf(w, "%s,%d,%.6g,%.6g\n", d.Device, d.X[i], d.PowerW[i], d.MBps[i])
			}
		}
		return nil
	}
}

// modelCSV writes a power-throughput model as one row per sample.
func modelCSV(m *core.Model) func(io.Writer) error {
	return func(w io.Writer) error {
		fmt.Fprintln(w, "device,power_state,random,write,chunk_bytes,depth,power_w,mbps,norm_power,norm_tput,avg_lat_ns,p99_lat_ns")
		for _, p := range m.Normalized() {
			s := p.Sample
			fmt.Fprintf(w, "%s,%d,%v,%v,%d,%d,%.6g,%.6g,%.6g,%.6g,%d,%d\n",
				s.Device, s.PowerState, s.Random, s.Write, s.ChunkBytes, s.Depth,
				s.PowerW, s.ThroughputMBps, p.Power, p.Throughput, s.AvgLat.Nanoseconds(), s.P99Lat.Nanoseconds())
		}
		return nil
	}
}
