// Package wattio_test holds the benchmark harness that regenerates
// every table and figure in the paper's evaluation (run with
// `go test -bench=. -benchmem`), plus ablation benchmarks for the
// design choices DESIGN.md calls out and micro-benchmarks of the
// simulation substrate itself.
//
// Figure benchmarks report their headline quantities via b.ReportMetric
// so `bench_output.txt` doubles as a paper-vs-measured record.
package wattio_test

import (
	"fmt"
	"testing"
	"time"

	"wattio/internal/calib"
	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/experiments"
	"wattio/internal/hdd"
	"wattio/internal/measure"
	"wattio/internal/scenario"
	"wattio/internal/serve"
	"wattio/internal/sim"
	"wattio/internal/ssd"
	"wattio/internal/workload"
)

// benchSpec is the paper-default suite with per-point cost kept low
// while letting every trend bind; the powerbench CLI runs the same
// experiments at full paper scale.
var benchSpec = func() *scenario.Spec {
	sp := scenario.BuiltIn("paper-default")
	sp.Runtime = scenario.Duration(2 * time.Second)
	sp.TotalBytes = 512 << 20
	return sp
}()

func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(benchSpec)
	}
	for _, r := range rows {
		b.ReportMetric(r.MinW, r.Label+"_min_W")
		b.ReportMetric(r.MaxW, r.Label+"_max_W")
	}
}

func BenchmarkFigure2(b *testing.B) {
	sp := *benchSpec
	sp.TotalBytes = 2 << 30 // the burst process needs a longer trace
	var f experiments.Fig2
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.Figure2(&sp)
		if err != nil {
			b.Fatal(err)
		}
	}
	s1 := f.Violins["SSD1"]
	b.ReportMetric(s1.Mean, "SSD1_mean_W")
	b.ReportMetric(s1.Max-s1.Min, "SSD1_swing_W")
	b.ReportMetric(float64(f.Trace.Len()), "trace_samples")
}

func BenchmarkFigure3(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure3(benchSpec)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		if s.Label == "ps1 qd64" || s.Label == "ps2 qd64" {
			b.ReportMetric(s.Y[len(s.Y)-1], s.Label[:3]+"_2MiB_W")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Figure4(benchSpec)
		if err != nil {
			b.Fatal(err)
		}
	}
	by := map[string]experiments.Series{}
	for _, s := range series {
		by[s.Label] = s
	}
	last := len(by["seq write ps0"].Y) - 1
	b.ReportMetric(by["seq write ps1"].Y[last]/by["seq write ps0"].Y[last], "write_ps1_over_ps0")
	b.ReportMetric(by["seq write ps2"].Y[last]/by["seq write ps0"].Y[last], "write_ps2_over_ps0")
	b.ReportMetric(by["seq read ps2"].Y[last]/by["seq read ps0"].Y[last], "read_ps2_over_ps0")
}

func BenchmarkFigure5(b *testing.B) {
	var avg, p99 []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		avg, p99, err = experiments.Figure5(benchSpec)
		if err != nil {
			b.Fatal(err)
		}
	}
	n := len(avg[2].Y) - 1
	b.ReportMetric(avg[2].Y[n], "ps2_avg_ratio_2MiB")
	b.ReportMetric(p99[2].Y[n], "ps2_p99_ratio_2MiB")
}

func BenchmarkFigure6(b *testing.B) {
	var avg, p99 []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		avg, p99, err = experiments.Figure6(benchSpec)
		if err != nil {
			b.Fatal(err)
		}
	}
	n := len(avg[2].Y) - 1
	b.ReportMetric(avg[2].Y[n], "ps2_avg_ratio_2MiB")
	b.ReportMetric(p99[2].Y[n], "ps2_p99_ratio_2MiB")
}

func BenchmarkFigure7(b *testing.B) {
	var f experiments.Fig7
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.Figure7(benchSpec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.EnterDone.Seconds()*1000, "enter_settled_ms")
	b.ReportMetric(f.ExitDone.Seconds()*1000, "exit_settled_ms")
}

func BenchmarkFigure8(b *testing.B) {
	var sweeps []experiments.DeviceSweep
	for i := 0; i < b.N; i++ {
		var err error
		sweeps, err = experiments.Figure8(benchSpec)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, d := range sweeps {
		n := len(d.X) - 1
		b.ReportMetric(d.PowerW[0]/d.PowerW[n], d.Device+"_power_4k_over_2m")
		b.ReportMetric(d.MBps[0]/d.MBps[n], d.Device+"_tput_4k_over_2m")
	}
}

func BenchmarkFigure9(b *testing.B) {
	var sweeps []experiments.DeviceSweep
	for i := 0; i < b.N; i++ {
		var err error
		sweeps, err = experiments.Figure9(benchSpec)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, d := range sweeps {
		n := len(d.X) - 1
		b.ReportMetric(d.PowerW[0]/d.PowerW[n], d.Device+"_power_qd1_over_qd128")
		b.ReportMetric(d.MBps[0]/d.MBps[n], d.Device+"_tput_qd1_over_qd128")
	}
}

func BenchmarkFigure10(b *testing.B) {
	var dr2, dr1 float64
	for i := 0; i < b.N; i++ {
		models, err := experiments.Figure10(benchSpec)
		if err != nil {
			b.Fatal(err)
		}
		dr2 = models["SSD2"].DynamicRangeFrac()
		dr1 = models["SSD1"].DynamicRangeFrac()
	}
	b.ReportMetric(dr2*100, "SSD2_dynrange_pct")
	b.ReportMetric(dr1*100, "SSD1_dynrange_pct")
}

func BenchmarkHeadline(b *testing.B) {
	var h experiments.Headline
	for i := 0; i < b.N; i++ {
		models, err := experiments.Figure10(benchSpec)
		if err != nil {
			b.Fatal(err)
		}
		h, err = experiments.ComputeHeadline(models)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.SSD2DynamicRange*100, "SSD2_dynrange_pct")
	b.ReportMetric(h.HDDThroughputFloor*100, "HDD_tput_floor_pct")
	b.ReportMetric(h.Curtailment.PowerReduction*100, "curtail_power_pct")
	b.ReportMetric((1-h.Curtailment.ThroughputKept)*100, "curtail_tput_pct")
}

func BenchmarkStandby(b *testing.B) {
	var rows []experiments.StandbyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.StandbyStudy(benchSpec)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if !r.Supported {
			continue
		}
		b.ReportMetric(r.SavedW, r.Device+"_saved_W")
		b.ReportMetric(r.EnterTook.Seconds()+r.ExitTook.Seconds(), r.Device+"_roundtrip_s")
	}
}

// BenchmarkFleetServe runs the fleet serving engine at the powerbench
// -exp fleet defaults (stepped budget, no faults) and reports the
// headline serving metrics. It is for local profiling; the tracked
// fleet wall time is perfbench's pure-1k workload.
func BenchmarkFleetServe(b *testing.B) {
	spec, err := experiments.FleetSpec(benchSpec)
	if err != nil {
		b.Fatal(err)
	}
	var rep *serve.Report
	for i := 0; i < b.N; i++ {
		rep, err = serve.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.ThroughputMBps, "fleet_MBps")
	b.ReportMetric(float64(rep.LatP99)/1e6, "fleet_p99_ms")
	b.ReportMetric(rep.AvgPowerW, "fleet_avg_W")
	b.ReportMetric(rep.WorstOverW, "fleet_worst_over_W")
	b.ReportMetric(float64(rep.Rejected), "fleet_rejected")
}

// BenchmarkMesoServe pair-runs a 10k-device steady fleet with the
// mesoscale tier off and then on, and reports the wall-clock speedup,
// the dispatched-event reduction, and the energy agreement between the
// two representations. It fails unless the tier dispatches at least 2×
// fewer events (deterministic, unlike the speedup) and its drift probe
// stays quiet; CI runs it once with -benchtime 1x.
// The arrival rate is turned down from the builtin scenario's so the
// pure event-driven baseline stays affordable at this fleet size.
func BenchmarkMesoServe(b *testing.B) {
	sp := scenario.BuiltIn("meso")
	sp.Fleet.Size = 10000
	sp.Fleet.RateIOPS = 500
	spec, err := sp.ServeSpec(2 * time.Second)
	if err != nil {
		b.Fatal(err)
	}
	base := spec
	base.Meso = false
	var pure, hyb *serve.Report
	var pureNS, hybNS float64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if pure, err = serve.Run(base); err != nil {
			b.Fatal(err)
		}
		pureNS = float64(time.Since(t0))
		t0 = time.Now()
		if hyb, err = serve.Run(spec); err != nil {
			b.Fatal(err)
		}
		hybNS = float64(time.Since(t0))
	}
	diff := (hyb.AvgPowerW - pure.AvgPowerW) / pure.AvgPowerW
	if diff < 0 {
		diff = -diff
	}
	driftOK := 0.0
	if hyb.MesoDriftOK {
		driftOK = 1
	}
	ratio := float64(pure.Events) / float64(hyb.Events)
	if ratio < 2 {
		b.Fatalf("event reduction %.2fx under the 2x gate", ratio)
	}
	if !hyb.MesoDriftOK {
		b.Fatalf("sentinel drift probe fired (worst %.4f)", hyb.MesoWorstDriftFrac)
	}
	b.ReportMetric(pureNS/hybNS, "meso_speedup_x")
	b.ReportMetric(ratio, "meso_event_ratio_x")
	b.ReportMetric(diff*100, "meso_energy_diff_pct")
	b.ReportMetric(float64(hyb.MesoParkedPeriods), "meso_parked_periods")
	b.ReportMetric(driftOK, "meso_drift_ok")
}

// BenchmarkCalib calibrates every catalog class the calib scenario
// covers, then pair-runs that scenario's mixed fleet with mechanistic
// and fitted devices, and reports the worst cross-validated fit quality
// plus the fleet-level power and throughput disagreement. The same
// quantities are gated by `powerbench -exp calib`, which fails on a
// fit or agreement miss.
func BenchmarkCalib(b *testing.B) {
	sp := scenario.BuiltIn("calib")
	worstR2, worstMAPE := 1.0, 0.0
	var fitted, mech *serve.Report
	var fitNS float64
	for i := 0; i < b.N; i++ {
		worstR2, worstMAPE = 1.0, 0.0
		t0 := time.Now()
		for _, p := range sp.Fleet.Profiles {
			f, err := calib.FitClass(p, calib.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if f.R2 < worstR2 {
				worstR2 = f.R2
			}
			if f.MAPE > worstMAPE {
				worstMAPE = f.MAPE
			}
		}
		fitNS = float64(time.Since(t0))
		fittedSpec, err := sp.ServeSpec(sp.Runtime.D())
		if err != nil {
			b.Fatal(err)
		}
		mechSpec := fittedSpec
		mechSpec.Fitted = nil
		if mech, err = serve.Run(mechSpec); err != nil {
			b.Fatal(err)
		}
		if fitted, err = serve.Run(fittedSpec); err != nil {
			b.Fatal(err)
		}
	}
	powErr := (fitted.AvgPowerW - mech.AvgPowerW) / mech.AvgPowerW
	if powErr < 0 {
		powErr = -powErr
	}
	tputErr := (fitted.ThroughputMBps - mech.ThroughputMBps) / mech.ThroughputMBps
	if tputErr < 0 {
		tputErr = -tputErr
	}
	b.ReportMetric(worstR2, "calib_worst_r2")
	b.ReportMetric(worstMAPE*100, "calib_worst_mape_pct")
	b.ReportMetric(powErr*100, "calib_fleet_power_diff_pct")
	b.ReportMetric(tputErr*100, "calib_fleet_tput_diff_pct")
	b.ReportMetric(fitNS/1e9, "calib_fit_s")
}

// --- Ablations -----------------------------------------------------------

// capped2MiBQD1 measures the qd1 2MiB random-write p99 latency ratio
// (ps2/ps0) for a modified SSD2 configuration.
func capped2MiBQD1(b *testing.B, mod func(*ssd.Config)) float64 {
	b.Helper()
	lat := func(ps int) time.Duration {
		cfg := catalog.SSD2Config()
		if mod != nil {
			mod(&cfg)
		}
		eng := sim.NewEngine()
		dev, err := ssd.New(&cfg, cfg.Name, eng, sim.NewRNG(7))
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.SetPowerState(ps); err != nil {
			b.Fatal(err)
		}
		res := workload.Run(eng, dev, workload.Job{
			Op: device.OpWrite, Pattern: workload.Rand, BS: 2 << 20, Depth: 1,
			Runtime: 5 * time.Second, TotalBytes: 2 << 30,
		}, sim.NewRNG(7))
		return res.LatP99
	}
	return float64(lat(2)) / float64(lat(0))
}

// BenchmarkAblationThrottleQuantum shows that the firmware throttle
// granularity — not the energy budget — creates the paper's tail-latency
// spikes: with ideally smooth throttling the p99 inflation collapses.
func BenchmarkAblationThrottleQuantum(b *testing.B) {
	for _, q := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		q := q
		b.Run(q.String(), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = capped2MiBQD1(b, func(c *ssd.Config) { c.ThrottleQuantum = q })
			}
			b.ReportMetric(ratio, "p99_ratio")
		})
	}
}

// BenchmarkAblationCapBurst varies the regulator's burst horizon: short
// horizons track the cap tightly; long horizons let the device overshoot
// early in the averaging window.
func BenchmarkAblationCapBurst(b *testing.B) {
	for _, burst := range []time.Duration{5 * time.Millisecond, 25 * time.Millisecond, 250 * time.Millisecond, time.Second} {
		burst := burst
		b.Run(burst.String(), func(b *testing.B) {
			var avgW float64
			for i := 0; i < b.N; i++ {
				cfg := catalog.SSD2Config()
				cfg.CapBurst = burst
				eng := sim.NewEngine()
				dev, err := ssd.New(&cfg, cfg.Name, eng, sim.NewRNG(7))
				if err != nil {
					b.Fatal(err)
				}
				if err := dev.SetPowerState(2); err != nil {
					b.Fatal(err)
				}
				e0, t0 := dev.EnergyJ(), eng.Now()
				workload.Run(eng, dev, workload.Job{
					Op: device.OpWrite, Pattern: workload.Seq, BS: 256 << 10, Depth: 64,
					Runtime: 2 * time.Second, TotalBytes: 1 << 30,
				}, sim.NewRNG(7))
				avgW = (dev.EnergyJ() - e0) / (eng.Now() - t0).Seconds()
			}
			b.ReportMetric(avgW, "avg_W_at_10W_cap")
		})
	}
}

// BenchmarkAblationNCQ quantifies what command queuing buys the HDD on
// random IO — the reason its Fig. 8 line is flat rather than abysmal.
func BenchmarkAblationNCQ(b *testing.B) {
	for _, ncq := range []bool{true, false} {
		name := "ncq"
		if !ncq {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				cfg := catalog.HDDConfig()
				cfg.DisableNCQ = !ncq
				eng := sim.NewEngine()
				dev, err := hdd.New(&cfg, cfg.Name, eng, sim.NewRNG(7))
				if err != nil {
					b.Fatal(err)
				}
				res := workload.Run(eng, dev, workload.Job{
					Op: device.OpRead, Pattern: workload.Rand, BS: 64 << 10, Depth: 64,
					Runtime: 5 * time.Second, TotalBytes: 128 << 20,
				}, sim.NewRNG(7))
				mbps = res.BandwidthMBps
			}
			b.ReportMetric(mbps, "MBps")
		})
	}
}

// BenchmarkAblationWriteBuffer varies SSD2's write-buffer size: the
// buffer sets how long a capped device can hide throttling from the
// host before latency surfaces.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	for _, mib := range []int64{16, 64, 256} {
		mib := mib
		b.Run(byteLabel(mib), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = capped2MiBQD1(b, func(c *ssd.Config) { c.BufferBytes = mib << 20 })
			}
			b.ReportMetric(ratio, "p99_ratio")
		})
	}
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := sim.NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			eng.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	eng.After(time.Microsecond, tick)
	eng.Run()
}

func BenchmarkSSDRandomRead4K(b *testing.B) {
	eng := sim.NewEngine()
	dev := catalog.NewSSD2(eng, sim.NewRNG(1))
	rng := sim.NewRNG(2)
	done := 0
	b.ResetTimer()
	var issue func()
	issue = func() {
		if done >= b.N {
			return
		}
		off := rng.Int64N(dev.CapacityBytes()/4096) * 4096
		dev.Submit(device.Request{Op: device.OpRead, Offset: off, Size: 4096}, func() {
			done++
			issue()
		})
	}
	for i := 0; i < 64; i++ {
		issue()
	}
	for done < b.N && eng.Step() {
	}
}

func BenchmarkSSDSequentialWrite1M(b *testing.B) {
	eng := sim.NewEngine()
	dev := catalog.NewSSD2(eng, sim.NewRNG(1))
	done := 0
	next := int64(0)
	b.ResetTimer()
	var issue func()
	issue = func() {
		if done >= b.N {
			return
		}
		off := next % (dev.CapacityBytes() - 1<<20)
		next += 1 << 20
		dev.Submit(device.Request{Op: device.OpWrite, Offset: off, Size: 1 << 20}, func() {
			done++
			issue()
		})
	}
	for i := 0; i < 16; i++ {
		issue()
	}
	for done < b.N && eng.Step() {
	}
}

func BenchmarkFrameEncodeDecode(b *testing.B) {
	codes := make([]int32, 16)
	for i := range codes {
		codes[i] = int32(i * 100000)
	}
	var wire []byte
	var decoded []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = measure.AppendFrame(wire[:0], uint16(i), codes)
		var err error
		if _, decoded, _, err = measure.DecodeFrameInto(wire, decoded[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers --------------------------------------------------------------

func byteLabel(mib int64) string {
	return fmt.Sprintf("%dMiB", mib)
}

// BenchmarkAblationHostLink reproduces the paper's testbed caveat ("This
// computer supports PCIe 3, which has limited bandwidth ... read
// bandwidth cannot always be saturated"): on a PCIe 4 host, SSD1's
// sequential reads rise past the PCIe 3 ceiling while write power
// characteristics barely move.
func BenchmarkAblationHostLink(b *testing.B) {
	for _, gen := range []struct {
		name string
		mbps float64
	}{{"pcie3", 3550}, {"pcie4", 7000}} {
		gen := gen
		b.Run(gen.name, func(b *testing.B) {
			var readBW float64
			for i := 0; i < b.N; i++ {
				cfg := catalog.SSD1Config()
				cfg.LinkMBps = gen.mbps
				eng := sim.NewEngine()
				dev, err := ssd.New(&cfg, cfg.Name, eng, sim.NewRNG(7))
				if err != nil {
					b.Fatal(err)
				}
				res := workload.Run(eng, dev, workload.Job{
					Op: device.OpRead, Pattern: workload.Seq, BS: 1 << 20, Depth: 64,
					Runtime: 2 * time.Second, TotalBytes: 1 << 30,
				}, sim.NewRNG(7))
				readBW = res.BandwidthMBps
			}
			b.ReportMetric(readBW, "seqread_MBps")
		})
	}
}
