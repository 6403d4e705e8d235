package experiments

import (
	"io"
	"strings"
	"testing"
	"time"

	"wattio/internal/scenario"
)

// boundedSpec returns the spec `powerbench -exp all` runs, the
// paper-default suite, with its run length and byte bound replaced.
func boundedSpec(runtime time.Duration, bytes int64) *scenario.Spec {
	sp := scenario.BuiltIn("paper-default")
	sp.Runtime = scenario.Duration(runtime)
	sp.TotalBytes = bytes
	return sp
}

// testSpec is large enough for the trends to emerge but fast enough
// for CI. Power-state regulators need a few hundred milliseconds of
// binding time, so the byte bound dominates.
var testSpec = boundedSpec(3*time.Second, 1<<30)

func TestRegistryComplete(t *testing.T) {
	want := []string{"calib", "chaos", "churn", "fig10", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fleet", "headline", "meso", "prop", "report", "standby", "table1"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" {
			t.Errorf("%s has no title", e.ID)
		}
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("ByID(%s) missed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID found a nonexistent experiment")
	}
}

func TestTable1Shapes(t *testing.T) {
	rows := Table1(testSpec)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	// Paper's Table 1 ranges: SSD1 3.5-13.5, SSD2 5-15.1, SSD3 1-3.5,
	// HDD 1-5.3. Allow modeling slack.
	bounds := map[string][4]float64{
		"SSD1": {3.3, 3.7, 11.5, 14.2},
		"SSD2": {4.8, 5.2, 14.0, 15.8},
		"SSD3": {0.9, 1.1, 3.0, 3.8},
		"HDD":  {1.0, 1.2, 5.0, 6.2},
	}
	for _, r := range rows {
		b := bounds[r.Label]
		if r.MinW < b[0] || r.MinW > b[1] {
			t.Errorf("%s min %.2f W outside [%.1f, %.1f]", r.Label, r.MinW, b[0], b[1])
		}
		if r.MaxW < b[2] || r.MaxW > b[3] {
			t.Errorf("%s max %.2f W outside [%.1f, %.1f]", r.Label, r.MaxW, b[2], b[3])
		}
		if r.Model == "" || r.Protocol == "" {
			t.Errorf("%s row incomplete: %+v", r.Label, r)
		}
	}
}

func TestFigure2Variability(t *testing.T) {
	// The burst process needs a second-plus of trace to show up
	// reliably; use the paper's full byte bound for this one.
	f, err := Figure2(boundedSpec(5*time.Second, 4<<30))
	if err != nil {
		t.Fatal(err)
	}
	if f.Trace.Len() < 100 {
		t.Fatalf("SSD1 trace has %d samples", f.Trace.Len())
	}
	// Fig. 2's point: SSD1 swings several watts at millisecond scale.
	s1 := f.Violins["SSD1"]
	if s1.Max-s1.Min < 3 {
		t.Errorf("SSD1 power swing %.2f W, want > 3 (Fig. 2a shows ~9-13.5 W)", s1.Max-s1.Min)
	}
	// All four devices have a distribution.
	for _, name := range []string{"SSD1", "SSD2", "SSD3", "HDD"} {
		if f.Violins[name].N == 0 {
			t.Errorf("%s violin empty", name)
		}
	}
	// Median and mean nearly overlap (paper's observation).
	if diff := s1.Mean - s1.Median; diff > 1.0 || diff < -1.0 {
		t.Errorf("SSD1 mean-median gap %.2f W, want small", diff)
	}
}

func TestFigure3CapsBind(t *testing.T) {
	series, err := Figure3(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("%d series, want 6 (3 ps × 2 depths)", len(series))
	}
	byLabel := map[string]Series{}
	for _, s := range series {
		byLabel[s.Label] = s
	}
	// At qd64 and large chunks, ps order holds: ps0 > ps1 > ps2.
	last := len(byLabel["ps0 qd64"].Y) - 1
	p0, p1, p2 := byLabel["ps0 qd64"].Y[last], byLabel["ps1 qd64"].Y[last], byLabel["ps2 qd64"].Y[last]
	if !(p0 > p1 && p1 > p2) {
		t.Errorf("qd64 2MiB powers not ordered: ps0=%.2f ps1=%.2f ps2=%.2f", p0, p1, p2)
	}
	// ps1/ps2 sit near their caps at qd64 large chunks.
	if p1 < 11 || p1 > 12.8 {
		t.Errorf("ps1 power %.2f W, want ≈ 12 (cap)", p1)
	}
	if p2 < 9 || p2 > 10.8 {
		t.Errorf("ps2 power %.2f W, want ≈ 10 (cap)", p2)
	}
	// qd1 draws less than qd64 at every chunk for ps0.
	for i := range byLabel["ps0 qd64"].Y {
		if byLabel["ps0 qd1"].Y[i] > byLabel["ps0 qd64"].Y[i]+0.3 {
			t.Errorf("chunk %d: qd1 power %.2f exceeds qd64 %.2f",
				byLabel["ps0 qd1"].X[i], byLabel["ps0 qd1"].Y[i], byLabel["ps0 qd64"].Y[i])
		}
	}
}

func TestFigure4WriteReadAsymmetry(t *testing.T) {
	series, err := Figure4(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Series{}
	for _, s := range series {
		byLabel[s.Label] = s
	}
	last := len(byLabel["seq write ps0"].Y) - 1
	w0, w1, w2 := byLabel["seq write ps0"].Y[last], byLabel["seq write ps1"].Y[last], byLabel["seq write ps2"].Y[last]
	r0, r2 := byLabel["seq read ps0"].Y[last], byLabel["seq read ps2"].Y[last]
	// Paper: writes drop to ~74% (ps1) and ~55% (ps2); reads barely move.
	if ratio := w1 / w0; ratio < 0.66 || ratio > 0.82 {
		t.Errorf("seq write ps1/ps0 = %.2f, want ≈ 0.74", ratio)
	}
	if ratio := w2 / w0; ratio < 0.45 || ratio > 0.62 {
		t.Errorf("seq write ps2/ps0 = %.2f, want ≈ 0.55", ratio)
	}
	if ratio := r2 / r0; ratio < 0.95 {
		t.Errorf("seq read ps2/ps0 = %.2f, want ≈ 1 (minimal drop)", ratio)
	}
}

func TestFigure5TailLatencyInflates(t *testing.T) {
	avg, p99, err := Figure5(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	lastChunk := len(avg[2].Y) - 1
	if r := avg[2].Y[lastChunk]; r < 1.2 || r > 2.5 {
		t.Errorf("ps2 avg latency ratio at 2MiB = %.2f, want in [1.2, 2.5] (paper: up to 2x)", r)
	}
	if r := p99[2].Y[lastChunk]; r < 3.0 || r > 7.5 {
		t.Errorf("ps2 p99 latency ratio at 2MiB = %.2f, want in [3, 7.5] (paper: up to 6.19x)", r)
	}
	// Small chunks stay below the cap: ratios near 1.
	if r := avg[2].Y[0]; r > 1.15 {
		t.Errorf("ps2 avg ratio at 4KiB = %.2f, want ≈ 1", r)
	}
	// ps0 is by construction all-ones.
	for _, v := range avg[0].Y {
		if v != 1 {
			t.Errorf("ps0 normalized ratio = %v, want 1", v)
		}
	}
}

func TestFigure6ReadsUnaffected(t *testing.T) {
	avg, p99, err := Figure6(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	for ps := 1; ps < 3; ps++ {
		for i := range avg[ps].Y {
			if r := avg[ps].Y[i]; r < 0.97 || r > 1.03 {
				t.Errorf("ps%d read avg ratio at chunk %d = %.3f, want ≈ 1", ps, avg[ps].X[i], r)
			}
			if r := p99[ps].Y[i]; r < 0.95 || r > 1.05 {
				t.Errorf("ps%d read p99 ratio at chunk %d = %.3f, want ≈ 1", ps, p99[ps].X[i], r)
			}
		}
	}
}

func TestFigure7TransitionTimes(t *testing.T) {
	f, err := Figure7(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	// SLUMBER at 200 ms: settled within 0.5 s of the command.
	if f.EnterDone < 200*time.Millisecond || f.EnterDone > 700*time.Millisecond {
		t.Errorf("enter settled at %v, want within 0.5s after the 200ms command", f.EnterDone)
	}
	// Wake at 400 ms: settled within 0.5 s of the command.
	if f.ExitDone < 400*time.Millisecond || f.ExitDone > 900*time.Millisecond {
		t.Errorf("exit settled at %v, want within 0.5s after the 400ms command", f.ExitDone)
	}
	// Trace shape: idle level before the command, slumber level at the end.
	first := f.IdleToStandby.Between(0, 150*time.Millisecond).Mean()
	lastW := f.IdleToStandby.Between(800*time.Millisecond, time.Second).Mean()
	if first < 0.33 || first > 0.37 {
		t.Errorf("pre-command power %.3f W, want ≈ 0.35", first)
	}
	if lastW < 0.16 || lastW > 0.18 {
		t.Errorf("post-transition power %.3f W, want ≈ 0.17", lastW)
	}
}

func TestFigure8Shapes(t *testing.T) {
	sweeps, err := Figure8(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	byDev := map[string]DeviceSweep{}
	for _, d := range sweeps {
		byDev[d.Device] = d
	}
	// Paper: 4 KiB chunks consume up to ~30% less power than 2 MiB and
	// lose up to ~50% throughput (SSDs).
	for _, name := range []string{"SSD1", "SSD2"} {
		d := byDev[name]
		n := len(d.X) - 1
		powerRatio := d.PowerW[0] / d.PowerW[n]
		tputRatio := d.MBps[0] / d.MBps[n]
		if powerRatio > 0.92 {
			t.Errorf("%s: 4KiB power is %.0f%% of 2MiB, want noticeably less", name, 100*powerRatio)
		}
		if tputRatio > 0.75 {
			t.Errorf("%s: 4KiB tput is %.0f%% of 2MiB, want ≤ 75%%", name, 100*tputRatio)
		}
	}
	// HDD sits near the bottom of the throughput plot everywhere.
	hddMax := 0.0
	for _, v := range byDev["HDD"].MBps {
		if v > hddMax {
			hddMax = v
		}
	}
	if hddMax > 200 {
		t.Errorf("HDD random write peak %.0f MB/s, implausible", hddMax)
	}
}

func TestFigure9Shapes(t *testing.T) {
	sweeps, err := Figure9(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range sweeps {
		n := len(d.X) - 1
		if d.Device == "HDD" {
			continue // HDD random read barely scales with depth
		}
		// Paper: qd1 uses up to ~40% less power but may deliver only a
		// small fraction of throughput.
		if d.PowerW[0] >= d.PowerW[n] {
			t.Errorf("%s: qd1 power %.2f not below qd128 power %.2f", d.Device, d.PowerW[0], d.PowerW[n])
		}
		if d.MBps[0] >= d.MBps[n]*0.6 {
			t.Errorf("%s: qd1 tput %.1f not far below qd128 %.1f", d.Device, d.MBps[0], d.MBps[n])
		}
	}
}

func TestStandbyStudy(t *testing.T) {
	rows, err := StandbyStudy(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	byDev := map[string]StandbyRow{}
	for _, r := range rows {
		byDev[r.Device] = r
	}
	hdd := byDev["HDD"]
	if !hdd.Supported {
		t.Fatal("HDD standby unsupported")
	}
	if hdd.SavedW < 2.4 || hdd.SavedW > 2.9 {
		t.Errorf("HDD standby saves %.2f W, paper: 2.66 W", hdd.SavedW)
	}
	if hdd.EnterTook+hdd.ExitTook < 8*time.Second || hdd.EnterTook+hdd.ExitTook > 14*time.Second {
		t.Errorf("HDD round trip %v, paper: up to ~10 s", hdd.EnterTook+hdd.ExitTook)
	}
	evo := byDev["EVO"]
	if !evo.Supported {
		t.Fatal("EVO standby unsupported")
	}
	if evo.StandbyW < 0.16 || evo.StandbyW > 0.18 {
		t.Errorf("EVO slumber %.3f W, paper: 0.17 W", evo.StandbyW)
	}
	if evo.EnterTook > 500*time.Millisecond || evo.ExitTook > 700*time.Millisecond {
		t.Errorf("EVO transitions %v/%v, paper: within 0.5 s", evo.EnterTook, evo.ExitTook)
	}
	for _, dc := range []string{"SSD1", "SSD2", "SSD3"} {
		if byDev[dc].Supported {
			t.Errorf("%s reports standby support; data-center SSDs decline it", dc)
		}
	}
}

func TestRunOutputsNonEmpty(t *testing.T) {
	// Every registered experiment must produce some output at quick
	// scale without error. The heavyweight ones are covered above; this
	// exercises the formatting paths.
	for _, e := range []string{"fig7", "standby"} {
		exp, _ := ByID(e)
		var sb strings.Builder
		if err := exp.Run(scenario.BuiltIn("paper-default"), &sb, nil); err != nil {
			t.Errorf("%s: %v", e, err)
		}
		if !strings.Contains(sb.String(), "==") {
			t.Errorf("%s produced no section header", e)
		}
	}
}

var _ io.Writer = (*strings.Builder)(nil)

func TestProportionalityShape(t *testing.T) {
	rows, err := Proportionality(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		// Consolidation never draws more than spreading.
		if r.ConsolW > r.SpreadW+0.02 {
			t.Errorf("load %d%%: consolidated %.3f W above spread %.3f W", r.LoadPct, r.ConsolW, r.SpreadW)
		}
	}
	// At low load the saving is substantial (≥3 replicas slumbering).
	if save := rows[0].SpreadW - rows[0].ConsolW; save < 0.4 {
		t.Errorf("low-load saving %.3f W, want ≥ 0.4 (3 × 0.18 W slumber delta)", save)
	}
	// At full load the two policies converge.
	if diff := rows[5].SpreadW - rows[5].ConsolW; diff > 0.05 || diff < -0.05 {
		t.Errorf("full-load policies differ by %.3f W, want ≈ 0", diff)
	}
	// Consolidated power is monotone in load (power proportionality).
	for i := 1; i < len(rows); i++ {
		if rows[i].ConsolW < rows[i-1].ConsolW-0.02 {
			t.Errorf("consolidated power not monotone: %.3f at %d%% after %.3f at %d%%",
				rows[i].ConsolW, rows[i].LoadPct, rows[i-1].ConsolW, rows[i-1].LoadPct)
		}
	}
}
