package serve

import (
	"math"
	"testing"
	"time"

	"wattio/internal/calib"
	"wattio/internal/catalog"
	"wattio/internal/detcheck"
	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

// calibTestOptions keeps the calibration sweeps cheap under `go test`;
// FitClass memoizes, so every test in the package shares one sweep per
// class.
func calibTestOptions() calib.Options {
	return calib.Options{PointRuntime: 800 * time.Millisecond, Seed: 42, Folds: 5}
}

var calibProfiles = []string{"SSD1", "SSD2", "SSD3", "HDD"}

func fitAll(t *testing.T) map[string]*calib.Model {
	t.Helper()
	fitted := make(map[string]*calib.Model, len(calibProfiles))
	for _, p := range calibProfiles {
		f, err := calib.FitClass(p, calibTestOptions())
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		fitted[p] = f.Model
	}
	return fitted
}

// runClosed drives one device with a closed-loop job — after a warmup
// pass matching the calibration methodology, so stateful devices (the
// HDD's write-back cache) are measured in steady state — and returns
// the energy of the measured window.
func runClosed(t *testing.T, dev device.Device, eng *sim.Engine, job workload.Job, seed uint64) float64 {
	t.Helper()
	warm := job
	warm.Runtime = 600 * time.Millisecond
	workload.Run(eng, dev, warm, sim.NewRNG(seed).Stream("warm"))
	e0 := dev.EnergyJ()
	workload.Run(eng, dev, job, sim.NewRNG(seed).Stream("wl"))
	return dev.EnergyJ() - e0
}

// TestFittedDifferentialDevices is the per-device half of the
// differential gate: the same closed-loop job, run against the
// mechanistic simulator and against the fitted model of each class and
// power state, must agree on total energy within the calibration MAPE
// gate.
func TestFittedDifferentialDevices(t *testing.T) {
	job := workload.Job{
		Pattern: workload.Rand,
		BS:      256 << 10,
		Depth:   64,
		Runtime: 400 * time.Millisecond,
	}
	var apes []float64
	for _, class := range calibProfiles {
		f, err := calib.FitClass(class, calibTestOptions())
		if err != nil {
			t.Fatal(err)
		}
		for ps := range f.Model.States {
			for _, op := range []device.Op{device.OpRead, device.OpWrite} {
				job.Op = op

				meng := sim.NewEngine()
				mdev, ok := catalog.NewNamed(class, class, meng, sim.NewRNG(9).Stream("dev"))
				if !ok {
					t.Fatalf("unknown class %s", class)
				}
				if ps != 0 {
					if err := mdev.SetPowerState(ps); err != nil {
						t.Fatal(err)
					}
				}
				mechJ := runClosed(t, mdev, meng, job, 77)

				feng := sim.NewEngine()
				fdev, err := calib.NewDevice(feng, f.Model, "fit0")
				if err != nil {
					t.Fatal(err)
				}
				if ps != 0 {
					if err := fdev.SetPowerState(ps); err != nil {
						t.Fatal(err)
					}
				}
				fitJ := runClosed(t, fdev, feng, job, 77)

				ape := math.Abs(fitJ-mechJ) / mechJ
				apes = append(apes, ape)
				t.Logf("%s ps%d %v: mech %.3f J, fitted %.3f J, err %.1f%%",
					class, ps, op, mechJ, fitJ, 100*ape)
			}
		}
	}
	var sum float64
	for _, a := range apes {
		sum += a
	}
	if mape := sum / float64(len(apes)); mape > calib.GateMAPE {
		t.Errorf("per-device differential MAPE %.3f exceeds gate %.2f", mape, calib.GateMAPE)
	}
}

// calibFleetSpec is the canonical mixed fleet the fitted/mechanistic
// differential runs on: every calibrated class, never-binding budget.
func calibFleetSpec() Spec {
	return Spec{
		Profiles:  calibProfiles,
		Size:      16,
		RateIOPS:  3000,
		Horizon:   time.Second,
		Seed:      42,
		FaultSeed: 1,
	}
}

// TestFittedFleetDifferential is the fleet half of the differential
// gate: a serving run with every profile swapped to its fitted model
// must reproduce the mechanistic fleet's average power within the MAPE
// gate, while serving comparable traffic.
func TestFittedFleetDifferential(t *testing.T) {
	mech, err := Run(calibFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := calibFleetSpec()
	spec.Fitted = fitAll(t)
	fitted, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	powErr := math.Abs(fitted.AvgPowerW-mech.AvgPowerW) / mech.AvgPowerW
	t.Logf("fleet avg power: mech %.2f W, fitted %.2f W, err %.2f%%",
		mech.AvgPowerW, fitted.AvgPowerW, 100*powErr)
	if powErr > calib.GateMAPE {
		t.Errorf("fleet power disagreement %.3f exceeds gate %.2f", powErr, calib.GateMAPE)
	}
	tputErr := math.Abs(fitted.ThroughputMBps-mech.ThroughputMBps) / mech.ThroughputMBps
	t.Logf("fleet throughput: mech %.1f MB/s, fitted %.1f MB/s, err %.2f%%",
		mech.ThroughputMBps, fitted.ThroughputMBps, 100*tputErr)
	if tputErr > 0.10 {
		t.Errorf("fleet throughput disagreement %.3f exceeds 0.10", tputErr)
	}
	if fitted.Completed == 0 {
		t.Error("fitted fleet completed no IO")
	}
}

// TestFittedFleetDeterministic extends the determinism contract to
// fitted fleets: the merged report is bit-identical across repeats and
// GOMAXPROCS settings.
func TestFittedFleetDeterministic(t *testing.T) {
	fitted := fitAll(t)
	produce := func() (*Report, error) {
		spec := calibFleetSpec()
		spec.Fitted = fitted
		return Run(spec)
	}
	detcheck.Assert(t, produce, detcheck.Config[*Report]{
		Procs: []int{1, 4},
		Diff: func(t testing.TB, a, b *Report) {
			t.Logf("reference: %+v", a)
			t.Logf("divergent: %+v", b)
		},
	})
}

// TestFittedSpecValidation pins the spec-level rejection paths.
func TestFittedSpecValidation(t *testing.T) {
	spec := calibFleetSpec()
	spec.Fitted = map[string]*calib.Model{"SSD9": {}}
	if _, err := Run(spec); err == nil {
		t.Error("fitted model for unknown profile accepted")
	}
	spec = calibFleetSpec()
	spec.Fitted = map[string]*calib.Model{"SSD2": nil}
	if _, err := Run(spec); err == nil {
		t.Error("nil fitted model accepted")
	}
	spec = calibFleetSpec()
	spec.Fitted = map[string]*calib.Model{"SSD2": {Class: "SSD2"}}
	if _, err := Run(spec); err == nil {
		t.Error("invalid fitted model accepted")
	}
}

// TestFittedWithGovernorsAndBudget runs both fleets under a binding
// budget: governors and the budget controller drive fitted devices
// through the same PowerStates/SetPowerState surface as mechanistic
// ones, and the two fleets must respond alike — same tracking verdict,
// average power still within the differential gate.
func TestFittedWithGovernorsAndBudget(t *testing.T) {
	budget := []BudgetStep{{At: 0, FleetW: 70}}
	mspec := calibFleetSpec()
	mspec.Budget = budget
	mech, err := Run(mspec)
	if err != nil {
		t.Fatal(err)
	}
	fspec := calibFleetSpec()
	fspec.Budget = budget
	fspec.Fitted = fitAll(t)
	fitted, err := Run(fspec)
	if err != nil {
		t.Fatal(err)
	}
	if fitted.Completed == 0 {
		t.Error("budgeted fitted fleet completed no IO")
	}
	if fitted.TrackOK != mech.TrackOK {
		t.Errorf("tracking verdict diverged: fitted %v, mech %v", fitted.TrackOK, mech.TrackOK)
	}
	powErr := math.Abs(fitted.AvgPowerW-mech.AvgPowerW) / mech.AvgPowerW
	t.Logf("budgeted fleets: mech %.2f W (steps %d), fitted %.2f W (steps %d), err %.2f%%",
		mech.AvgPowerW, mech.GovSteps, fitted.AvgPowerW, fitted.GovSteps, 100*powErr)
	if powErr > calib.GateMAPE {
		t.Errorf("budgeted fleet power disagreement %.3f exceeds gate %.2f", powErr, calib.GateMAPE)
	}
}
