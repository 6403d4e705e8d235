package experiments

import (
	"fmt"
	"io"
	"time"

	"wattio/internal/scenario"
)

// The reproduction report turns EXPERIMENTS.md into something a machine
// checks: every paper claim is a named band, the experiments run, and
// each claim prints PASS or FAIL with the measured value. `powerbench
// -exp report` is the one-command answer to "does this repository still
// reproduce the paper?".

// Claim is one paper number with the acceptance band the reproduction
// must land in.
type Claim struct {
	ID       string
	Paper    string // the paper's claim, quoted
	Measured float64
	Lo, Hi   float64
	Unit     string
}

// Pass reports whether the measured value is inside the band.
func (c Claim) Pass() bool { return c.Measured >= c.Lo && c.Measured <= c.Hi }

// Report runs the core experiments and evaluates every claim band.
// Bands are calibrated for byte-bound-dominated scales (quick and up);
// the HDD throughput floor additionally needs paper scale and is only
// checked there.
func Report(sp *scenario.Spec) ([]Claim, error) {
	var claims []Claim
	add := func(id, paper string, measured, lo, hi float64, unit string) {
		claims = append(claims, Claim{ID: id, Paper: paper, Measured: measured, Lo: lo, Hi: hi, Unit: unit})
	}

	// Cap-sensitive experiments need enough bytes for the regulator's
	// deficit to dominate its burst allowance; enforce a floor.
	capSpec := *sp
	if sp.Bytes() < 1<<30 {
		capSpec.TotalBytes = 1 << 30
	}
	if sp.Horizon() < 3*time.Second {
		capSpec.Runtime = scenario.Duration(3 * time.Second)
	}

	// Figure 4: write/read asymmetry under caps.
	fig4, err := Figure4(&capSpec)
	if err != nil {
		return nil, err
	}
	by := map[string]Series{}
	for _, x := range fig4 {
		by[x.Label] = x
	}
	last := len(by["seq write ps0"].Y) - 1
	add("fig4.write.ps1", "seq write at ps1 is 74% of ps0",
		by["seq write ps1"].Y[last]/by["seq write ps0"].Y[last], 0.66, 0.82, "ratio")
	add("fig4.write.ps2", "seq write at ps2 is 55% of ps0",
		by["seq write ps2"].Y[last]/by["seq write ps0"].Y[last], 0.45, 0.62, "ratio")
	add("fig4.read.ps2", "seq read under ps2: minimal drop",
		by["seq read ps2"].Y[last]/by["seq read ps0"].Y[last], 0.93, 1.001, "ratio")

	// Figure 5/6: latency under caps.
	_, p99w, err := Figure5(&capSpec)
	if err != nil {
		return nil, err
	}
	add("fig5.p99.2MiB", "random write p99 inflates up to 6.19x at ps2",
		p99w[2].Y[len(p99w[2].Y)-1], 3.0, 7.5, "x")
	avgR, _, err := Figure6(&capSpec)
	if err != nil {
		return nil, err
	}
	worst := 1.0
	for _, v := range avgR[2].Y {
		if v > worst {
			worst = v
		}
	}
	add("fig6.read.flat", "read latency unaffected by power states",
		worst, 0.97, 1.03, "ratio")

	// §3.2.2: standby levels and transitions.
	standby, err := StandbyStudy(sp)
	if err != nil {
		return nil, err
	}
	for _, r := range standby {
		switch r.Device {
		case "HDD":
			add("standby.hdd.saved", "HDD standby saves 2.66 W", r.SavedW, 2.4, 2.9, "W")
			add("standby.hdd.roundtrip", "HDD spin down+up takes ~10 s",
				(r.EnterTook + r.ExitTook).Seconds(), 8, 14, "s")
		case "EVO":
			add("standby.evo.slumber", "860 EVO slumbers at 0.17 W", r.StandbyW, 0.16, 0.18, "W")
			add("standby.evo.enter", "EVO transition within 0.5 s",
				r.EnterTook.Seconds(), 0, 0.5, "s")
		}
	}

	// Figure 10 / headline: dynamic range and the curtailment example.
	models, err := Figure10(sp)
	if err != nil {
		return nil, err
	}
	h, err := ComputeHeadline(models)
	if err != nil {
		return nil, err
	}
	add("fig10.ssd2.dynrange", "SSD2 dynamic range is 59.4% of max power",
		100*h.SSD2DynamicRange, 54, 63, "%")
	add("headline.curtail.power", "curtailment example sheds ~20% power",
		100*h.Curtailment.PowerReduction, 15, 25, "%")
	if sp.Horizon() >= scenario.PaperRuntime {
		add("fig10.hdd.floor", "HDD throughput floor is ~4% of max",
			100*h.HDDThroughputFloor, 1, 8, "%")
	}

	return claims, nil
}

func init() {
	register("report", "Reproduction report: every paper claim checked against its band", func(sp *scenario.Spec, w io.Writer, _ *CSV) error {
		start := time.Now()
		claims, err := Report(sp)
		if err != nil {
			return err
		}
		section(w, "Reproduction report")
		pass := 0
		for _, c := range claims {
			status := "PASS"
			if c.Pass() {
				pass++
			} else {
				status = "FAIL"
			}
			fmt.Fprintf(w, "%-4s %-22s %8.3f %-5s in [%g, %g]  — %s\n",
				status, c.ID, c.Measured, c.Unit, c.Lo, c.Hi, c.Paper)
		}
		fmt.Fprintf(w, "\n%d/%d claims reproduced (%v)\n", pass, len(claims), time.Since(start).Round(time.Second))
		if pass != len(claims) {
			return fmt.Errorf("experiments: %d claims outside their bands", len(claims)-pass)
		}
		return nil
	})
}
