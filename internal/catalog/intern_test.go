package catalog

import (
	"reflect"
	"testing"
	"time"

	"wattio/internal/device"
	"wattio/internal/hdd"
	"wattio/internal/sim"
	"wattio/internal/ssd"
	"wattio/internal/workload"
)

// TestInternedTemplatesMatchConstructors: the shared configs must be
// exactly what the public constructors build — interning changes
// allocation, never calibration.
func TestInternedTemplatesMatchConstructors(t *testing.T) {
	t.Parallel()
	fresh := map[string]ssd.Config{
		"SSD1": SSD1Config(),
		"SSD2": SSD2Config(),
		"SSD3": SSD3Config(),
		"EVO":  EVOConfig(),
		"C960": C960Config(),
	}
	for name, want := range fresh {
		got, ok := ssdTemplates[name]
		if !ok {
			t.Fatalf("no interned config for %s", name)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("interned %s config diverges from its constructor", name)
		}
	}
	if !reflect.DeepEqual(*hddTemplate, HDDConfig()) {
		t.Error("interned HDD config diverges from its constructor")
	}
}

// TestInternSharesBackingArrays: every instance of a class must share one
// immutable config — that sharing is the flyweight — while each keeps
// its own name.
func TestInternSharesBackingArrays(t *testing.T) {
	t.Parallel()
	eng, rng := sim.NewEngine(), sim.NewRNG(1)
	build := func(profile, name string) *ssd.SSD {
		d, _ := NewNamed(profile, name, eng, rng)
		return d.(*ssd.SSD)
	}
	a, b := build("SSD2", "SSD2#00000"), build("SSD2", "SSD2#00001")
	if pa, pb := a.PowerStates(), b.PowerStates(); len(pa) == 0 || &pa[0] != &pb[0] {
		t.Error("SSD2 power-state tables are not shared across instances")
	}
	na, _ := a.EnergyComponents()
	nb, _ := b.EnergyComponents()
	if len(na) == 0 || &na[0] != &nb[0] {
		t.Error("SSD2 meter component names are not shared across instances")
	}
	c, d := build("C960", "c"), build("C960", "d")
	if nc, nd := c.Config().NonOpStates, d.Config().NonOpStates; len(nc) == 0 || &nc[0] != &nd[0] {
		t.Error("C960 non-op-state tables are not shared across instances")
	}
	if a.Name() != "SSD2#00000" || a.Config().Name != "SSD2#00000" || ssdTemplates["SSD2"].Name != "SSD2" {
		t.Errorf("instance name %q (config %q) leaked into or from the class config %q",
			a.Name(), a.Config().Name, ssdTemplates["SSD2"].Name)
	}
}

// TestInternBitIdenticalDevices runs the same seeded workload on a
// device built through the interned NewNamed path and one built from a
// fresh constructor config, and requires bit-identical results.
func TestInternBitIdenticalDevices(t *testing.T) {
	t.Parallel()
	job := workload.Job{
		Op: device.OpWrite, Pattern: workload.Rand, BS: 64 * KiB, Depth: 8,
		Runtime: 500 * time.Millisecond, TotalBytes: 64 * MiB,
	}
	run := func(dev device.Device, eng *sim.Engine, rng *sim.RNG) (workload.Result, float64) {
		res := workload.Run(eng, dev, job, rng)
		return res, dev.EnergyJ()
	}
	same := func(a, b workload.Result) bool {
		return a.IOs == b.IOs && a.Bytes == b.Bytes && a.Elapsed == b.Elapsed &&
			a.BandwidthMBps == b.BandwidthMBps && a.IOPS == b.IOPS &&
			a.LatAvg == b.LatAvg && a.LatP50 == b.LatP50 && a.LatP99 == b.LatP99 && a.LatMax == b.LatMax &&
			reflect.DeepEqual(a.Latencies, b.Latencies)
	}

	for _, profile := range []string{"SSD1", "SSD2", "SSD3", "EVO", "C960"} {
		t.Run(profile, func(t *testing.T) {
			t.Parallel()
			engA, rngA := sim.NewEngine(), sim.NewRNG(9)
			devA, ok := NewNamed(profile, profile, engA, rngA.Stream("dev"))
			if !ok {
				t.Fatalf("NewNamed(%s) failed", profile)
			}
			resA, eA := run(devA, engA, rngA.Stream("wl"))

			fresh := map[string]func() ssd.Config{
				"SSD1": SSD1Config, "SSD2": SSD2Config, "SSD3": SSD3Config,
				"EVO": EVOConfig, "C960": C960Config,
			}[profile]()
			engB, rngB := sim.NewEngine(), sim.NewRNG(9)
			devB, err := ssd.New(&fresh, profile, engB, rngB.Stream("dev"))
			if err != nil {
				t.Fatal(err)
			}
			resB, eB := run(devB, engB, rngB.Stream("wl"))

			if !same(resA, resB) || eA != eB {
				t.Fatalf("interned vs fresh diverged:\n  interned ios=%d %.9f J\n  fresh    ios=%d %.9f J", resA.IOs, eA, resB.IOs, eB)
			}
		})
	}

	t.Run("HDD", func(t *testing.T) {
		t.Parallel()
		engA, rngA := sim.NewEngine(), sim.NewRNG(9)
		devA, ok := NewNamed("HDD", "HDD", engA, rngA.Stream("dev"))
		if !ok {
			t.Fatal("NewNamed(HDD) failed")
		}
		resA, eA := run(devA, engA, rngA.Stream("wl"))

		fresh := HDDConfig()
		engB, rngB := sim.NewEngine(), sim.NewRNG(9)
		devB, err := hdd.New(&fresh, "HDD", engB, rngB.Stream("dev"))
		if err != nil {
			t.Fatal(err)
		}
		resB, eB := run(devB, engB, rngB.Stream("wl"))
		if !same(resA, resB) || eA != eB {
			t.Fatalf("interned vs fresh diverged:\n  interned ios=%d %.9f J\n  fresh    ios=%d %.9f J", resA.IOs, eA, resB.IOs, eB)
		}
	})
}

// TestNewNamedAllocs bounds what one fleet device costs to build: an
// SSD2 instance shares its class config and makes 5 allocations (the
// device, its RNG stream, its meter and its per-die slice among them),
// an HDD 4. The meter shares its class's component-name table.
func TestNewNamedAllocs(t *testing.T) {
	eng, rng := sim.NewEngine(), sim.NewRNG(1)
	for _, c := range []struct {
		profile string
		max     float64
	}{{"SSD2", 5}, {"HDD", 4}} {
		name := c.profile + "#00001"
		n := testing.AllocsPerRun(50, func() { NewNamed(c.profile, name, eng, rng) })
		if n > c.max {
			t.Errorf("NewNamed(%q) allocates %.0f times, want at most %.0f", c.profile, n, c.max)
		}
	}
}
