package calib

import (
	"testing"
	"time"
)

// testOptions keeps the calibration sweep cheap under `go test` while
// staying in the regime where the gates hold.
func testOptions() Options {
	return Options{PointRuntime: 800 * time.Millisecond, Seed: 42, Folds: 5}
}

var calibClasses = []string{"SSD1", "SSD2", "SSD3", "HDD"}

func TestFitClassDeterministic(t *testing.T) {
	// Two uncached fits of the same class and options must produce
	// byte-identical model files.
	a, err := fitClass("SSD2", mustDefaults(t, testOptions()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := fitClass("SSD2", mustDefaults(t, testOptions()))
	if err != nil {
		t.Fatal(err)
	}
	ea, err := a.Model.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Model.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(ea) != string(eb) {
		t.Fatal("identical fits encode differently")
	}
	if a.R2 != b.R2 || a.MAPE != b.MAPE {
		t.Fatal("identical fits score differently")
	}
}

func TestFitClassMemoized(t *testing.T) {
	a, err := FitClass("SSD3", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitClass("SSD3", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same class and options did not hit the fit cache")
	}
	// Different options miss the cache.
	opt := testOptions()
	opt.Seed = 43
	c, err := FitClass("SSD3", opt)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seed shared a cache entry")
	}
}

func TestFitClassRejectsBadInput(t *testing.T) {
	if _, err := FitClass("SSD9", testOptions()); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := FitClass("SSD2", Options{Folds: 1}); err == nil {
		t.Error("single fold accepted")
	}
}

// TestFittedModelValidates: a fresh fit already satisfies the same
// contract a loaded file must meet, including positive service times in
// both directions for every state.
func TestFittedModelValidates(t *testing.T) {
	f, err := FitClass("HDD", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Model.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.Model.Class != "HDD" || f.Model.CapacityBytes <= 0 {
		t.Fatalf("metadata not carried: %+v", f.Model)
	}
}

func mustDefaults(t *testing.T, o Options) Options {
	t.Helper()
	d, err := o.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFitClassGates(t *testing.T) {
	for _, class := range calibClasses {
		f, err := FitClass(class, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		t.Logf("%s: R2=%.5f MAPE=%.4f states=%d", class, f.R2, f.MAPE, len(f.Model.States))
		if !f.GatesOK() {
			t.Errorf("%s: fit misses gates: R2=%.5f (>= %.2f), MAPE=%.4f (<= %.2f)",
				class, f.R2, GateR2, f.MAPE, GateMAPE)
		}
		for i, st := range f.Model.States {
			t.Logf("  ps%d: static=%.3fW rdOp=%.3guJ rdB=%.3gnJ wrOp=%.3guJ wrB=%.3gnJ svcRd=%.3gus+%.3gns/B",
				i, st.Energy.StaticW,
				st.Energy.ReadOpJ*1e6, st.Energy.ReadByteJ*1e9,
				st.Energy.WriteOpJ*1e6, st.Energy.WriteByteJ*1e9,
				st.Service.ReadOpS*1e6, st.Service.ReadByteS*1e9)
		}
	}
}
