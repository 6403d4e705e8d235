package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestGridValidateRejectsWithPath mirrors TestValidateRejectsWithPath
// for the version-2 grid stanza: every axis-level rejection names the
// offending path, so a bad campaign file is fixable from the error
// alone.
func TestGridValidateRejectsWithPath(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"empty grid", func(s *Spec) { s.Grid = &GridSpec{} }, "at least one axis"},
		{"non-fleet experiment", func(s *Spec) { s.Experiment = "chaos" }, "experiment \"fleet\""},
		{"present but empty axis", func(s *Spec) { s.Grid.FleetSizes = []int{} }, "grid.fleet_sizes"},
		{"bad budget schedule", func(s *Spec) { s.Grid.Budgets[1] = "0s:junk" }, "grid.budgets[1]"},
		{"duplicate budget spelling", func(s *Spec) { s.Grid.Budgets[1] = "0s:14.60pd" }, "grid.budgets[1]"},
		{"zero fleet size", func(s *Spec) { s.Grid.FleetSizes[0] = 0 }, "grid.fleet_sizes[0]"},
		{"oversize fleet size", func(s *Spec) { s.Grid.FleetSizes[1] = maxFleetSize + 2 }, "grid.fleet_sizes[1]"},
		{"duplicate fleet size", func(s *Spec) { s.Grid.FleetSizes = []int{8, 8} }, "grid.fleet_sizes[1]"},
		{"duplicate fault seed", func(s *Spec) { s.Grid.FaultSeeds = []uint64{1, 1} }, "grid.fault_seeds[1]"},
		{"point ceiling", func(s *Spec) {
			seeds := make([]uint64, 1025) // 2 budgets x 2 sizes x 1025 seeds = 4100 > 4096
			for i := range seeds {
				seeds[i] = uint64(i)
			}
			s.Grid.FaultSeeds = seeds
		}, "ceiling"},
		{"cross-axis indivisible point", func(s *Spec) { s.Grid.FleetSizes = []int{8, 9} }, "grid point b0-n1"},
		{"point lacks fault target", func(s *Spec) { s.Grid.FleetSizes = []int{8, 2} }, "grid point b0-n1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := BuiltIn("campaign")
			tc.mut(sp)
			err := sp.Validate()
			if err == nil {
				t.Fatal("mutated campaign spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestExpandCampaign pins the canonical campaign's family: 8 points in
// lexicographic order with the axis values applied and names derived
// from labels.
func TestExpandCampaign(t *testing.T) {
	sp := BuiltIn("campaign")
	pts, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("expanded to %d points, want 8", len(pts))
	}
	if pts[0].Label != "b0-n0-fs0" || pts[7].Label != "b1-n1-fs1" {
		t.Fatalf("label endpoints %q..%q", pts[0].Label, pts[7].Label)
	}
	for _, pt := range pts {
		if pt.Spec.Grid != nil {
			t.Fatalf("point %s still carries a grid stanza", pt.Label)
		}
		if pt.Spec.Name != "campaign/"+pt.Label {
			t.Fatalf("point %s named %q", pt.Label, pt.Spec.Name)
		}
		wantBudget := sp.Grid.Budgets[pt.Coords[0]]
		wantSize := sp.Grid.FleetSizes[pt.Coords[1]]
		wantSeed := sp.Grid.FaultSeeds[pt.Coords[2]]
		if pt.Spec.Fleet.Budget != wantBudget || pt.Spec.Fleet.Size != wantSize || pt.Spec.FaultSeed != wantSeed {
			t.Fatalf("point %s: budget=%q size=%d fault_seed=%d, want %q/%d/%d",
				pt.Label, pt.Spec.Fleet.Budget, pt.Spec.Fleet.Size, pt.Spec.FaultSeed,
				wantBudget, wantSize, wantSeed)
		}
	}
	// The base point (all coordinates zero) keeps the campaign seed.
	if pts[0].Spec.Seed != sp.Seed {
		t.Fatalf("base point seed %d, want campaign seed %d", pts[0].Spec.Seed, sp.Seed)
	}
}

// TestExpandGridless: a spec without a grid expands to exactly itself.
func TestExpandGridless(t *testing.T) {
	sp := BuiltIn("fleet")
	pts, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Label != "fleet" || pts[0].Spec.Seed != sp.Seed {
		t.Fatalf("gridless expansion: %+v", pts)
	}
}

// randomGrid builds a small random — but always valid — campaign grid
// on top of the canonical campaign spec.
func randomGrid(r *rand.Rand) *Spec {
	sp := BuiltIn("campaign")
	sp.Fleet.Faults = nil // free the fleet-size axis from the scripted target
	g := &GridSpec{}
	budgets := []string{"max", "0s:14.6pd", "0s:11pd", "0s:12pd,100ms:13pd"}
	sizes := []int{4, 8, 12, 16, 24}
	if n := r.Intn(len(budgets) + 1); n > 0 {
		g.Budgets = budgets[:n]
	}
	if n := r.Intn(len(sizes) + 1); n > 0 {
		g.FleetSizes = sizes[:n]
	}
	if n := r.Intn(4); n > 0 {
		seeds := make([]uint64, n)
		for i := range seeds {
			seeds[i] = uint64(1000 + i) // distinct by construction
		}
		g.FaultSeeds = seeds
	}
	if len(g.axes()) == 0 {
		g.FleetSizes = sizes[:2]
	}
	sp.Grid = g
	return sp
}

// TestGridExpansionProperties brute-forces the expansion invariants
// over random small grids: family size is the product of axis lengths,
// every point validates, point ordering is lexicographic in
// coordinates, and per-point seeds are pairwise distinct.
func TestGridExpansionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		sp := randomGrid(r)
		pts, err := sp.Expand()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := 1
		for _, a := range sp.Grid.Axes() {
			want *= a.Len
		}
		if len(pts) != want {
			t.Fatalf("trial %d: %d points, want product %d", trial, len(pts), want)
		}
		seeds := make(map[uint64]string, len(pts))
		for i, pt := range pts {
			if err := pt.Spec.Validate(); err != nil {
				t.Fatalf("trial %d: point %s does not validate: %v", trial, pt.Label, err)
			}
			if i > 0 && !coordLess(pts[i-1].Coords, pt.Coords) {
				t.Fatalf("trial %d: points not lexicographic at %d: %v then %v",
					trial, i, pts[i-1].Coords, pt.Coords)
			}
			if prev, dup := seeds[pt.Spec.Seed]; dup {
				t.Fatalf("trial %d: points %s and %s share seed %d", trial, prev, pt.Label, pt.Spec.Seed)
			}
			seeds[pt.Spec.Seed] = pt.Label
		}
	}
}

// TestGridSeedStability pins the axis-extension guarantee: appending a
// brand-new axis, or appending values to an existing axis, must not
// change the seed of any point that already existed.
func TestGridSeedStability(t *testing.T) {
	base := BuiltIn("campaign")
	base.Grid.FleetSizes = nil
	basePts, err := base.Expand()
	if err != nil {
		t.Fatal(err)
	}
	baseSeed := make(map[string]uint64, len(basePts))
	for _, pt := range basePts {
		baseSeed[pt.Label] = pt.Spec.Seed
	}

	// Appending a new axis: every old point sits at the new axis's
	// coordinate 0, and its label grows the new axis key.
	ext := BuiltIn("campaign")
	extPts, err := ext.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(extPts) != 2*len(basePts) {
		t.Fatalf("extended family has %d points, want %d", len(extPts), 2*len(basePts))
	}
	matched := 0
	for _, pt := range extPts {
		if pt.Coords[1] != 0 { // fleet-size axis sits between b and fs
			continue
		}
		old := fmt.Sprintf("b%d-fs%d", pt.Coords[0], pt.Coords[2])
		want, ok := baseSeed[old]
		if !ok {
			t.Fatalf("no base point for %s", old)
		}
		if pt.Spec.Seed != want {
			t.Fatalf("point %s: seed %d changed from %d after appending the fleet_sizes axis", pt.Label, pt.Spec.Seed, want)
		}
		matched++
	}
	if matched != len(basePts) {
		t.Fatalf("matched %d of %d base points", matched, len(basePts))
	}

	// Appending values to an existing axis: points at the old
	// coordinates keep their labels and seeds verbatim.
	grown := BuiltIn("campaign")
	grown.Grid.FleetSizes = nil
	grown.Grid.FaultSeeds = append(grown.Grid.FaultSeeds, 3, 4)
	grownPts, err := grown.Expand()
	if err != nil {
		t.Fatal(err)
	}
	bySuffix := make(map[string]uint64, len(grownPts))
	for _, pt := range grownPts {
		bySuffix[pt.Label] = pt.Spec.Seed
	}
	for label, want := range baseSeed {
		got, ok := bySuffix[label]
		if !ok {
			t.Fatalf("grown family lost point %s", label)
		}
		if got != want {
			t.Fatalf("point %s: seed %d changed from %d after growing the fault_seeds axis", label, got, want)
		}
	}
}

// TestPointSeedAxisOrderIndependence: the XOR fold makes the seed a
// set-of-contributions, not a sequence, so reordering axes (with their
// coordinates) cannot change it.
func TestPointSeedAxisOrderIndependence(t *testing.T) {
	a := PointSeed(42, []string{"b", "n", "fs"}, []int{1, 2, 3})
	b := PointSeed(42, []string{"fs", "b", "n"}, []int{3, 1, 2})
	if a != b {
		t.Fatalf("axis order changed the seed: %d vs %d", a, b)
	}
	if PointSeed(42, []string{"b"}, []int{0}) != 42 {
		t.Fatal("coordinate 0 must contribute nothing")
	}
	if PointSeed(42, []string{"b"}, []int{1}) == 42 {
		t.Fatal("non-zero coordinate must perturb the seed")
	}
}

func coordLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestGridPointsBuild materializes one non-trivial grid point end to
// end, so expansion output is known to be runnable, not just valid.
func TestGridPointsBuild(t *testing.T) {
	sp := BuiltIn("campaign")
	pts, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range []GridPoint{pts[0], pts[len(pts)-1]} {
		if _, err := pt.Spec.ServeSpec(100 * time.Millisecond); err != nil {
			t.Fatalf("point %s: ServeSpec: %v", pt.Label, err)
		}
	}
}
