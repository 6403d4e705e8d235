package experiments

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"wattio/internal/core"
	"wattio/internal/plot"
	"wattio/internal/scenario"
)

// This file gives every figure two extra output forms: ASCII charts
// (rendered inline by the registered Run functions) and CSV files for
// external plotting (ExportCSV), so the repository can regenerate the
// paper's figures both in a terminal and in a notebook.

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
func seriesCSV(w io.Writer, xName string, series []Series) error {
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

// sweepsCSV writes device sweeps as long-form rows.
func sweepsCSV(w io.Writer, xName string, sweeps []DeviceSweep) error {
	fmt.Fprintf(w, "device,%s,power_w,mbps\n", xName)
	for _, d := range sweeps {
		for i := range d.X {
			fmt.Fprintf(w, "%s,%d,%.6g,%.6g\n", d.Device, d.X[i], d.PowerW[i], d.MBps[i])
		}
	}
	return nil
}

// modelCSV writes a power-throughput model as one row per sample.
func modelCSV(w io.Writer, m *core.Model) error {
	fmt.Fprintln(w, "device,power_state,random,write,chunk_bytes,depth,power_w,mbps,norm_power,norm_tput,avg_lat_ns,p99_lat_ns")
	for _, p := range m.Normalized() {
		s := p.Sample
		fmt.Fprintf(w, "%s,%d,%v,%v,%d,%d,%.6g,%.6g,%.6g,%.6g,%d,%d\n",
			s.Device, s.PowerState, s.Random, s.Write, s.ChunkBytes, s.Depth,
			s.PowerW, s.ThroughputMBps, p.Power, p.Throughput, s.AvgLat.Nanoseconds(), s.P99Lat.Nanoseconds())
	}
	return nil
}

// ErrNoCSV reports an experiment without tabular data (table1,
// headline, standby and the serving experiments print directly).
var ErrNoCSV = errors.New("experiments: no CSV exporter")

// ExportCSV runs the named experiment and writes its data as CSV files
// under dir, returning the files written. An id without tabular data
// fails with an error wrapping ErrNoCSV; any other error is a failed
// run or a failed write.
func ExportCSV(id string, sp *scenario.Spec, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var files []string
	add := func(name string, fill func(io.Writer) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		// The buffer keeps the first failed write, so Flush reports
		// what the fill functions' unchecked prints dropped.
		bw := bufio.NewWriter(f)
		err = fill(bw)
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		files = append(files, path)
		return nil
	}

	switch id {
	case "fig2":
		f, err := Figure2(sp)
		if err != nil {
			return nil, err
		}
		if err := add("fig2a_trace.csv", f.Trace.WriteCSV); err != nil {
			return nil, err
		}
		return files, add("fig2b_violins.csv", func(w io.Writer) error {
			fmt.Fprintln(w, "device,n,min,p25,median,mean,p75,p99,max,stddev")
			for _, name := range []string{"SSD1", "SSD2", "SSD3", "HDD"} {
				v := f.Violins[name]
				fmt.Fprintf(w, "%s,%d,%.4g,%.4g,%.4g,%.4g,%.4g,%.4g,%.4g,%.4g\n",
					name, v.N, v.Min, v.P25, v.Median, v.Mean, v.P75, v.P99, v.Max, v.Stddev)
			}
			return nil
		})
	case "fig3":
		series, err := Figure3(sp)
		if err != nil {
			return nil, err
		}
		return files, add("fig3_power.csv", func(w io.Writer) error { return seriesCSV(w, "chunk_bytes", series) })
	case "fig4":
		series, err := Figure4(sp)
		if err != nil {
			return nil, err
		}
		return files, add("fig4_throughput.csv", func(w io.Writer) error { return seriesCSV(w, "chunk_bytes", series) })
	case "fig5", "fig6":
		fig := Figure5
		if id == "fig6" {
			fig = Figure6
		}
		avg, p99, err := fig(sp)
		if err != nil {
			return nil, err
		}
		if err := add(id+"a_avg.csv", func(w io.Writer) error { return seriesCSV(w, "chunk_bytes", avg) }); err != nil {
			return nil, err
		}
		return files, add(id+"b_p99.csv", func(w io.Writer) error { return seriesCSV(w, "chunk_bytes", p99) })
	case "fig7":
		f, err := Figure7(sp)
		if err != nil {
			return nil, err
		}
		if err := add("fig7a_enter.csv", f.IdleToStandby.WriteCSV); err != nil {
			return nil, err
		}
		return files, add("fig7b_exit.csv", f.StandbyToIdle.WriteCSV)
	case "fig8", "fig9":
		fig, x := Figure8, "chunk_bytes"
		if id == "fig9" {
			fig, x = Figure9, "depth"
		}
		sweeps, err := fig(sp)
		if err != nil {
			return nil, err
		}
		return files, add(id+".csv", func(w io.Writer) error { return sweepsCSV(w, x, sweeps) })
	case "fig10":
		models, err := Figure10(sp)
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"SSD1", "SSD2", "SSD3", "HDD"} {
			m := models[name]
			if err := add("fig10_"+name+".csv", func(w io.Writer) error { return modelCSV(w, m) }); err != nil {
				return nil, err
			}
		}
		return files, nil
	default:
		return nil, fmt.Errorf("%w for %q", ErrNoCSV, id)
	}
}
