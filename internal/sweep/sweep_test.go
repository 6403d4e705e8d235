package sweep

import (
	"strings"
	"testing"
	"time"

	"wattio/internal/device"
	"wattio/internal/workload"
)

// quickSpec returns a small grid that runs fast under `go test`.
func quickSpec(dev string) Spec {
	return Spec{
		Device:     dev,
		Chunks:     []int64{64 << 10, 1 << 20},
		Depths:     []int{1, 64},
		Runtime:    2 * time.Second,
		TotalBytes: 256 << 20,
		Seed:       11,
	}
}

func TestRunGridShape(t *testing.T) {
	pts, err := Run(quickSpec("SSD2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4 (2 chunks × 2 depths)", len(pts))
	}
	for _, p := range pts {
		if p.AvgPowerW < 5 || p.AvgPowerW > 16 {
			t.Errorf("%v: power %.2f W outside SSD2's plausible range", p.Config, p.AvgPowerW)
		}
		if p.Result.IOs == 0 {
			t.Errorf("%v: no IO completed", p.Config)
		}
		if p.Trace != nil {
			t.Errorf("%v: trace kept without KeepTrace", p.Config)
		}
	}
}

func TestRunKeepsTraceWhenAsked(t *testing.T) {
	spec := quickSpec("SSD1")
	spec.Chunks = []int64{256 << 10}
	spec.Depths = []int{64}
	spec.KeepTrace = true
	pts, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Trace == nil || pts[0].Trace.Len() == 0 {
		t.Fatal("trace missing")
	}
	// Rig power and trace mean must agree (same data).
	if pts[0].AvgPowerW != pts[0].Trace.Mean() {
		t.Error("AvgPowerW disagrees with trace mean")
	}
}

func TestRunReproducible(t *testing.T) {
	a, err := Run(quickSpec("SSD3"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickSpec("SSD3"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].AvgPowerW != b[i].AvgPowerW || a[i].Result.IOs != b[i].Result.IOs {
			t.Fatalf("point %d differs across identical runs", i)
		}
	}
}

func TestRunUnknownDevice(t *testing.T) {
	if _, err := Run(Spec{Device: "SSD9"}); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestRunBadPowerState(t *testing.T) {
	spec := quickSpec("SSD3") // SATA: no power states
	spec.PowerStates = []int{1}
	if _, err := Run(spec); err == nil {
		t.Fatal("power state on SATA SSD accepted")
	}
}

// TestRunRejectsPointWithoutSample: a 1 MiB point of 4 KiB writes at
// depth 4 completes in under a millisecond, before the rig's first
// 1 kHz sample, so it has no measured power. Run refuses it with an
// error naming the point instead of recording 0 W.
func TestRunRejectsPointWithoutSample(t *testing.T) {
	spec := Spec{
		Device: "SSD2", Chunks: []int64{4 << 10}, Depths: []int{4},
		Runtime: 20 * time.Millisecond, TotalBytes: 1 << 20, Seed: 1,
	}
	_, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "SSD2/ps0/randwrite-4KiB-qd4") || !strings.Contains(err.Error(), "first sample") {
		t.Fatalf("sampleless point: %v", err)
	}
	spec.TotalBytes = 64 << 20
	pts, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].AvgPowerW <= 0 {
		t.Fatalf("64 MiB point measured %v W", pts[0].AvgPowerW)
	}
}

func TestPaperGrids(t *testing.T) {
	if got := len(PaperChunks()); got != 6 {
		t.Errorf("PaperChunks has %d entries, want 6", got)
	}
	if got := len(PaperDepths()); got != 6 {
		t.Errorf("PaperDepths has %d entries, want 6", got)
	}
	if PaperChunks()[0] != 4096 || PaperChunks()[5] != 2<<20 {
		t.Error("chunk endpoints wrong")
	}
	if PaperDepths()[0] != 1 || PaperDepths()[5] != 128 {
		t.Error("depth endpoints wrong")
	}
}

func TestBuildModelSweepsPowerStates(t *testing.T) {
	m, err := BuildModel("SSD2", device.OpWrite, workload.Rand, 5, time.Second, 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	// 6 chunks × 6 depths × 3 power states.
	if got := len(m.Samples()); got != 108 {
		t.Fatalf("model has %d samples, want 108", got)
	}
	seen := map[int]bool{}
	for _, s := range m.Samples() {
		seen[s.PowerState] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Errorf("power states covered: %v, want 0,1,2", seen)
	}
}

func TestRecordsMatchPoints(t *testing.T) {
	pts, err := Run(quickSpec("SSD2"))
	if err != nil {
		t.Fatal(err)
	}
	recs := Records(pts)
	if len(recs) != len(pts) {
		t.Fatalf("Records len %d != %d", len(recs), len(pts))
	}
	for i, r := range recs {
		p := pts[i]
		if r.Device != p.Config.Device || r.PowerState != p.Config.PowerState ||
			r.ChunkBytes != p.Config.ChunkBytes || r.Depth != p.Config.Depth {
			t.Errorf("record %d config does not match point", i)
		}
		if r.IOs != p.Result.IOs || r.Bytes != p.Result.Bytes {
			t.Errorf("record %d counts do not match point", i)
		}
		// The record must carry exactly what a report would print: the
		// measured window, the rig mean, and their product as energy.
		if r.Seconds != p.Result.Elapsed.Seconds() || r.AvgPowerW != p.AvgPowerW {
			t.Errorf("record %d window/power diverges from point", i)
		}
		if r.EnergyJ != r.AvgPowerW*r.Seconds {
			t.Errorf("record %d energy %v != power×time", i, r.EnergyJ)
		}
		if r.EnergyJ <= 0 {
			t.Errorf("record %d has non-positive energy", i)
		}
	}
}

func TestIdleRecord(t *testing.T) {
	p, err := Idle("SSD2", 1, 500*time.Millisecond, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Record()
	if r.IOs != 0 || r.Bytes != 0 {
		t.Fatalf("idle record has IO: %+v", r)
	}
	if r.PowerState != 1 {
		t.Fatalf("idle record power state %d, want 1", r.PowerState)
	}
	if r.Seconds != 0.5 {
		t.Fatalf("idle window %v s, want 0.5", r.Seconds)
	}
	if r.AvgPowerW <= 0 || r.AvgPowerW > 8 {
		t.Fatalf("idle draw %.2f W outside SSD2's plausible idle range", r.AvgPowerW)
	}
	// Loaded draw at the same state must measurably exceed idle draw.
	spec := quickSpec("SSD2")
	spec.PowerStates = []int{1}
	spec.Chunks = []int64{256 << 10}
	spec.Depths = []int{64}
	pts, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if loaded := pts[0].Record(); loaded.AvgPowerW <= r.AvgPowerW {
		t.Errorf("loaded draw %.2f W not above idle %.2f W", loaded.AvgPowerW, r.AvgPowerW)
	}
}

func TestIdleReproducible(t *testing.T) {
	a, err := Idle("HDD", 0, 300*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Idle("HDD", 0, 300*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgPowerW != b.AvgPowerW {
		t.Fatalf("idle measurement not reproducible: %v vs %v", a.AvgPowerW, b.AvgPowerW)
	}
}

func TestIdleRejectsBadInput(t *testing.T) {
	if _, err := Idle("SSD9", 0, time.Second, 1); err == nil {
		t.Error("unknown device accepted")
	}
	if _, err := Idle("SSD2", 7, time.Second, 1); err == nil {
		t.Error("out-of-range power state accepted")
	}
	if _, err := Idle("SSD2", 0, 0, 1); err == nil {
		t.Error("zero window accepted")
	}
}

func TestSamplesConversion(t *testing.T) {
	pts, err := Run(quickSpec("SSD3"))
	if err != nil {
		t.Fatal(err)
	}
	ss := Samples(pts)
	if len(ss) != len(pts) {
		t.Fatalf("Samples len %d != %d", len(ss), len(pts))
	}
	for i := range ss {
		if ss[i].PowerW != pts[i].AvgPowerW || ss[i].ThroughputMBps != pts[i].Result.BandwidthMBps {
			t.Errorf("sample %d does not match point", i)
		}
	}
}
