package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func s(dev string, ps int, chunkKiB int64, depth int, w, mbps float64) Sample {
	return Sample{
		Config:         Config{Device: dev, PowerState: ps, Random: true, Write: true, ChunkBytes: chunkKiB * 1024, Depth: depth},
		PowerW:         w,
		ThroughputMBps: mbps,
	}
}

func testModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel("D", []Sample{
		s("D", 0, 4, 1, 5.5, 300),
		s("D", 0, 256, 1, 6.5, 2100),
		s("D", 0, 256, 64, 8.2, 3500),
		s("D", 0, 2048, 64, 8.4, 3500),
		s("D", 1, 256, 64, 7.0, 2500),
		s("D", 2, 256, 64, 6.0, 1900),
		s("D", 2, 4, 1, 5.2, 290),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewModel("D", nil); err == nil {
		t.Error("empty model accepted")
	}
	if _, err := NewModel("D", []Sample{s("X", 0, 4, 1, 5, 10)}); err == nil {
		t.Error("wrong-device sample accepted")
	}
	if _, err := NewModel("D", []Sample{s("D", 0, 4, 1, 0, 10)}); err == nil {
		t.Error("zero-power sample accepted")
	}
	if _, err := NewModel("D", []Sample{s("D", 0, 4, 1, 5, -1)}); err == nil {
		t.Error("negative-throughput sample accepted")
	}
}

func TestModelExtremes(t *testing.T) {
	t.Parallel()
	m := testModel(t)
	if m.MaxPowerW() != 8.4 || m.MinPowerW() != 5.2 {
		t.Errorf("power extremes = %v/%v, want 5.2/8.4", m.MinPowerW(), m.MaxPowerW())
	}
	if m.MaxThroughputMBps() != 3500 {
		t.Errorf("max tput = %v", m.MaxThroughputMBps())
	}
	want := (8.4 - 5.2) / 8.4
	if got := m.DynamicRangeFrac(); math.Abs(got-want) > 1e-12 {
		t.Errorf("dynamic range = %v, want %v", got, want)
	}
}

func TestNormalized(t *testing.T) {
	t.Parallel()
	m := testModel(t)
	pts := m.Normalized()
	var sawUnitPower, sawUnitTput bool
	for _, p := range pts {
		if p.Power < 0 || p.Power > 1 || p.Throughput < 0 || p.Throughput > 1 {
			t.Fatalf("point outside unit square: %+v", p)
		}
		if p.Power == 1 {
			sawUnitPower = true
		}
		if p.Throughput == 1 {
			sawUnitTput = true
		}
	}
	if !sawUnitPower || !sawUnitTput {
		t.Error("normalization did not map maxima to 1")
	}
}

func TestParetoFrontier(t *testing.T) {
	t.Parallel()
	m := testModel(t)
	fr := m.ParetoFrontier()
	if len(fr) == 0 {
		t.Fatal("empty frontier")
	}
	// Sorted by power, strictly increasing throughput.
	for i := 1; i < len(fr); i++ {
		if fr[i].PowerW < fr[i-1].PowerW {
			t.Error("frontier not sorted by power")
		}
		if fr[i].ThroughputMBps <= fr[i-1].ThroughputMBps {
			t.Error("frontier throughput not strictly increasing")
		}
	}
	// The 8.4 W / 3500 MBps point is dominated by 8.2 W / 3500 MBps.
	for _, f := range fr {
		if f.PowerW == 8.4 {
			t.Error("dominated point on frontier")
		}
	}
}

// Property: no frontier point is dominated by any sample.
func TestParetoFrontierProperty(t *testing.T) {
	t.Parallel()
	f := func(raw []struct{ P, T uint16 }) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]Sample, len(raw))
		for i, r := range raw {
			samples[i] = s("D", 0, 4, 1, float64(r.P)+1, float64(r.T))
		}
		m, err := NewModel("D", samples)
		if err != nil {
			return false
		}
		for _, fp := range m.ParetoFrontier() {
			for _, sp := range samples {
				if sp.PowerW <= fp.PowerW && sp.ThroughputMBps > fp.ThroughputMBps {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBestUnderPower(t *testing.T) {
	t.Parallel()
	m := testModel(t)
	best, ok := m.BestUnderPower(7.0)
	if !ok {
		t.Fatal("no point under 7 W")
	}
	if best.ThroughputMBps != 2500 {
		t.Errorf("best under 7 W = %v MBps, want 2500", best.ThroughputMBps)
	}
	if _, ok := m.BestUnderPower(1.0); ok {
		t.Error("found point under 1 W")
	}
}

func TestCurtail(t *testing.T) {
	t.Parallel()
	m := testModel(t)
	from, _ := m.BestUnderPower(8.2)
	plan, err := m.Curtail(from, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if plan.To.PowerW > from.PowerW*0.8+1e-9 {
		t.Errorf("curtailed point %v W exceeds 80%% budget of %v W", plan.To.PowerW, from.PowerW)
	}
	if plan.CurtailMBps != from.ThroughputMBps-plan.To.ThroughputMBps {
		t.Error("curtail bandwidth inconsistent")
	}
	if plan.ThroughputKept <= 0 || plan.ThroughputKept > 1 {
		t.Errorf("throughput kept = %v", plan.ThroughputKept)
	}
}

func TestCurtailValidation(t *testing.T) {
	t.Parallel()
	m := testModel(t)
	from, _ := m.BestUnderPower(9)
	if _, err := m.Curtail(from, 0); err == nil {
		t.Error("zero reduction accepted")
	}
	if _, err := m.Curtail(from, 1); err == nil {
		t.Error("unit reduction accepted")
	}
	if _, err := m.Curtail(from, 0.99); err == nil {
		t.Error("reduction below minimum power accepted")
	}
	// Degenerate from points: the plan's kept/reduction fractions
	// divide by the from throughput and power, so zero either way
	// must be a descriptive error rather than NaN.
	idle := s("D", 0, 256, 64, 5.0, 0)
	if _, err := m.Curtail(idle, 0.2); err == nil {
		t.Error("zero-throughput from point accepted")
	}
	unpowered := s("D", 0, 256, 64, 0, 1000)
	if _, err := m.Curtail(unpowered, 0.2); err == nil {
		t.Error("zero-power from point accepted")
	}
}

func TestFilter(t *testing.T) {
	t.Parallel()
	m := testModel(t)
	ps2, err := m.Filter(func(x Sample) bool { return x.PowerState == 2 })
	if err != nil {
		t.Fatal(err)
	}
	if len(ps2.Samples()) != 2 {
		t.Errorf("filtered model has %d samples, want 2", len(ps2.Samples()))
	}
	if _, err := m.Filter(func(Sample) bool { return false }); err == nil {
		t.Error("empty filter result accepted")
	}
}

func TestConfigString(t *testing.T) {
	t.Parallel()
	c := Config{Device: "SSD2", PowerState: 1, Random: true, Write: true, ChunkBytes: 256 * 1024, Depth: 64}
	if got := c.String(); got != "SSD2/ps1/randwrite-256KiB-qd64" {
		t.Errorf("String = %q", got)
	}
	c2 := Config{Device: "HDD", ChunkBytes: 4096, Depth: 1}
	if got := c2.String(); got != "HDD/ps0/seqread-4KiB-qd1" {
		t.Errorf("String = %q", got)
	}
}

func TestFleetFrontier(t *testing.T) {
	t.Parallel()
	a, _ := NewModel("A", []Sample{
		s("A", 0, 4, 1, 2, 100),
		s("A", 0, 4, 64, 4, 400),
	})
	b, _ := NewModel("B", []Sample{
		s("B", 0, 4, 1, 3, 50),
		s("B", 0, 4, 64, 5, 500),
	})
	f, err := NewFleet(a, b)
	if err != nil {
		t.Fatal(err)
	}
	fr := f.ParetoFrontier()
	// Candidate sums: (5,150) (7,600) (7,450) (9,900) → frontier drops (7,450).
	if len(fr) != 3 {
		t.Fatalf("frontier has %d assignments, want 3: %+v", len(fr), fr)
	}
	wantP := []float64{5, 7, 9}
	wantT := []float64{150, 600, 900}
	for i := range fr {
		if fr[i].TotalPowerW != wantP[i] || fr[i].TotalMBps != wantT[i] {
			t.Errorf("frontier[%d] = (%.0f W, %.0f MBps), want (%.0f, %.0f)",
				i, fr[i].TotalPowerW, fr[i].TotalMBps, wantP[i], wantT[i])
		}
		if len(fr[i].Configs) != 2 {
			t.Errorf("assignment %d covers %d devices, want 2", i, len(fr[i].Configs))
		}
	}
}

func TestFleetBestUnderPower(t *testing.T) {
	t.Parallel()
	a, _ := NewModel("A", []Sample{s("A", 0, 4, 1, 2, 100), s("A", 0, 4, 64, 4, 400)})
	b, _ := NewModel("B", []Sample{s("B", 0, 4, 1, 3, 50), s("B", 0, 4, 64, 5, 500)})
	f, _ := NewFleet(a, b)
	best, ok := f.BestUnderPower(8)
	if !ok || best.TotalMBps != 600 {
		t.Errorf("best under 8 W = %+v, want 600 MBps", best)
	}
	if _, ok := f.BestUnderPower(4); ok {
		t.Error("fit under impossible budget")
	}
}

func TestFleetValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewFleet(); err == nil {
		t.Error("empty fleet accepted")
	}
	a, _ := NewModel("A", []Sample{s("A", 0, 4, 1, 2, 100)})
	a2, _ := NewModel("A", []Sample{s("A", 0, 4, 1, 3, 100)})
	if _, err := NewFleet(a, a2); err == nil {
		t.Error("duplicate device accepted")
	}
}

// Property: fleet frontier is sorted and non-dominated.
func TestFleetFrontierProperty(t *testing.T) {
	t.Parallel()
	f := func(pa, pb []struct{ P, T uint8 }) bool {
		if len(pa) == 0 || len(pb) == 0 {
			return true
		}
		mk := func(dev string, pts []struct{ P, T uint8 }) *Model {
			ss := make([]Sample, len(pts))
			for i, p := range pts {
				ss[i] = s(dev, 0, 4, 1, float64(p.P)+1, float64(p.T))
			}
			m, _ := NewModel(dev, ss)
			return m
		}
		fl, err := NewFleet(mk("A", pa), mk("B", pb))
		if err != nil {
			return false
		}
		fr := fl.ParetoFrontier()
		if !sort.SliceIsSorted(fr, func(i, j int) bool { return fr[i].TotalPowerW < fr[j].TotalPowerW }) {
			return false
		}
		for i := 1; i < len(fr); i++ {
			if fr[i].TotalMBps <= fr[i-1].TotalMBps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Cross-check: the pruned pairwise fleet frontier must agree with a
// brute-force enumeration of the full configuration cross-product.
func TestFleetFrontierMatchesBruteForce(t *testing.T) {
	t.Parallel()
	f := func(pa, pb, pc []struct{ P, T uint8 }) bool {
		if len(pa) == 0 || len(pb) == 0 || len(pc) == 0 {
			return true
		}
		trim := func(x []struct{ P, T uint8 }) []struct{ P, T uint8 } {
			if len(x) > 6 {
				return x[:6]
			}
			return x
		}
		pa, pb, pc = trim(pa), trim(pb), trim(pc)
		mk := func(dev string, pts []struct{ P, T uint8 }) *Model {
			ss := make([]Sample, len(pts))
			for i, p := range pts {
				ss[i] = s(dev, 0, 4, 1, float64(p.P)+1, float64(p.T))
			}
			m, _ := NewModel(dev, ss)
			return m
		}
		ma, mb, mc := mk("A", pa), mk("B", pb), mk("C", pc)
		fl, err := NewFleet(ma, mb, mc)
		if err != nil {
			return false
		}
		got := fl.ParetoFrontier()

		// Brute force over the cross-product.
		type pt struct{ p, t float64 }
		var all []pt
		for _, a := range ma.Samples() {
			for _, b := range mb.Samples() {
				for _, c := range mc.Samples() {
					all = append(all, pt{a.PowerW + b.PowerW + c.PowerW, a.ThroughputMBps + b.ThroughputMBps + c.ThroughputMBps})
				}
			}
		}
		dominated := func(x pt) bool {
			for _, y := range all {
				if y.p <= x.p && y.t > x.t {
					return true
				}
			}
			return false
		}
		// Every frontier point must be non-dominated...
		for _, g := range got {
			if dominated(pt{g.TotalPowerW, g.TotalMBps}) {
				return false
			}
		}
		// ...and every non-dominated throughput level must be reachable
		// at no more power than the frontier charges for it.
		for _, x := range all {
			if dominated(x) {
				continue
			}
			found := false
			for _, g := range got {
				if g.TotalMBps >= x.t && g.TotalPowerW <= x.p {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
