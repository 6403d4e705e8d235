package ssd

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/telemetry"
	"wattio/internal/workload"
)

// TestTelemetryTaps drives a capped SSD hard enough that the regulator
// stalls, and checks the metric taps and trace spans record it.
func TestTelemetryTaps(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(0)
	eng := sim.NewEngine()
	eng.EnableTelemetry(reg, tr)
	cfg := testConfig()
	dev, err := New(&cfg, cfg.Name, eng, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetPowerState(1); err != nil {
		t.Fatal(err)
	}
	workload.Run(eng, dev, workload.Job{
		Op: device.OpWrite, Pattern: workload.Seq, BS: 256 << 10, Depth: 8,
		Runtime: 300 * time.Millisecond, TotalBytes: 64 << 20,
	}, sim.NewRNG(2))
	eng.Run() // drain flush timers so die gauges settle

	if got := reg.Counter("ssd_regulator_stalls_total").Value(); got == 0 {
		t.Error("capped run recorded no regulator stalls")
	}
	if got := reg.Counter("ssd_throttle_releases_total").Value(); got == 0 {
		t.Error("capped run recorded no throttle releases")
	}
	if got := reg.Histogram("ssd_regulator_stall_ns").Count(); got == 0 {
		t.Error("stall histogram empty")
	}
	if got := reg.Counter("ssd_page_programs_total").Value(); got == 0 {
		t.Error("no page programs counted")
	}
	if got := reg.Gauge("ssd_dies_busy").Value(); got != 0 {
		t.Errorf("dies busy %d after drain, want 0", got)
	}
	if max := reg.Gauge("ssd_dies_busy").Max(); max <= 0 || max > 8 {
		t.Errorf("dies busy high-water %d, want in (0, 8]", max)
	}
	if got := reg.Counter("workload_ios_issued_total").Value(); got != reg.Counter("workload_ios_completed_total").Value() {
		t.Errorf("issued %d != completed %d after drain", got, reg.Counter("workload_ios_completed_total").Value())
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace invalid JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "program" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("trace has no die program spans")
	}
}

// TestEnergyComponentsPartitionTotal checks the meter invariant the
// energy probe relies on: component energies sum to the total.
func TestEnergyComponentsPartitionTotal(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	cfg := testConfig()
	dev, err := New(&cfg, cfg.Name, eng, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	workload.Run(eng, dev, workload.Job{
		Op: device.OpWrite, Pattern: workload.Rand, BS: 64 << 10, Depth: 4,
		Runtime: 100 * time.Millisecond, TotalBytes: 16 << 20,
	}, sim.NewRNG(2))
	names, joules := dev.EnergyComponents()
	if len(names) != len(joules) || len(names) == 0 {
		t.Fatalf("breakdown shape: %d names, %d energies", len(names), len(joules))
	}
	var sum float64
	for _, j := range joules {
		if j < 0 {
			t.Fatalf("negative component energy %v", j)
		}
		sum += j
	}
	total := dev.EnergyJ()
	if diff := sum - total; diff > 1e-9*total || diff < -1e-9*total {
		t.Errorf("component energies sum %v != total %v", sum, total)
	}
}
