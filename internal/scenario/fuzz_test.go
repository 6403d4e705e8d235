package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"wattio/internal/sim"
)

// FuzzScenarioRoundTrip fuzzes the whole spec pipeline: any input that
// parses must canonicalize to a parse fixed point, and any spec that
// passes validation must materialize through every builder — invalid
// specs never build, valid specs never fail to.
func FuzzScenarioRoundTrip(f *testing.F) {
	for _, name := range BuiltInNames() {
		b, err := BuiltIn(name).Canonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"version":2,"name":"m","experiment":"all","seed":0}`))
	f.Add([]byte(`{"version":2,"name":"w","experiment":"fig4","seed":9,` +
		`"devices":[{"profile":"HDD","count":2}],` +
		`"workload":{"op":"read","pattern":"rand","chunk_bytes":4096,"depth":8,"runtime":"1s"}}`))
	f.Add([]byte(`{"version":2,"name":"g","experiment":"fleet","seed":0,` +
		`"grid":{"budgets":["max","0s:11pd"],"fleet_sizes":[4,8],"fault_seeds":[1,2]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(bytes.NewReader(data))
		if err != nil {
			return // invalid input rejected: that's the contract working
		}
		canon, err := sp.Canonical()
		if err != nil {
			t.Fatalf("validated spec failed to canonicalize: %v", err)
		}
		sp2, err := Parse(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon)
		}
		canon2, err := sp2.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical encoding is not a fixed point:\n--- first\n%s\n--- second\n%s", canon, canon2)
		}

		// Validated specs always build.
		if _, err := sp.ServeSpec(time.Second); err != nil {
			t.Fatalf("validated spec failed to build a serving spec: %v", err)
		}
		if sp.Workload != nil {
			if _, err := sp.Workload.Job(time.Second, 1<<20); err != nil {
				t.Fatalf("validated workload failed to build a job: %v", err)
			}
		}
		total := 0
		for _, d := range sp.Devices {
			c := d.Count
			if c == 0 {
				c = 1
			}
			total += c
		}
		// Materializing devices costs real allocations; bound the fleet
		// so a single fuzz exec stays cheap.
		if total <= 64 {
			eng := sim.NewEngine()
			if _, err := sp.BuildDevices(eng, sim.NewRNG(sp.Seed), sim.NewRNG(sp.FaultSeed)); err != nil {
				t.Fatalf("validated devices failed to build: %v", err)
			}
		}

		// Validated gridded specs always expand, and the family obeys
		// the expansion contract (size, ordering, distinct seeds).
		if sp.Grid != nil {
			checkExpansion(t, sp)
		}
	})
}

// checkExpansion asserts the grid-expansion invariants for one
// validated spec; FuzzScenarioRoundTrip and FuzzGridExpand share it.
func checkExpansion(t *testing.T, sp *Spec) {
	t.Helper()
	pts, err := sp.Expand()
	if err != nil {
		t.Fatalf("validated gridded spec failed to expand: %v", err)
	}
	want := 1
	for _, a := range sp.Grid.Axes() {
		want *= a.Len
	}
	if len(pts) != want {
		t.Fatalf("expanded to %d points, want axis product %d", len(pts), want)
	}
	seen := make(map[uint64]bool, len(pts))
	for i, pt := range pts {
		if pt.Spec.Grid != nil {
			t.Fatalf("point %s still gridded", pt.Label)
		}
		if err := pt.Spec.Validate(); err != nil {
			t.Fatalf("point %s does not validate: %v", pt.Label, err)
		}
		if i > 0 && !coordLess(pts[i-1].Coords, pt.Coords) {
			t.Fatalf("points out of lexicographic order at %d", i)
		}
		if seen[pt.Spec.Seed] {
			t.Fatalf("duplicate point seed %d at %s", pt.Spec.Seed, pt.Label)
		}
		seen[pt.Spec.Seed] = true
	}
}

// FuzzChurnSpecRoundTrip fuzzes the lane-lifecycle stanzas in
// isolation: arbitrary arrivals and churn values either fail
// validation with a path-named error, or survive the canonical
// round trip as a fixed point and build a serving spec.
func FuzzChurnSpecRoundTrip(f *testing.F) {
	f.Add(`[{"at":"1s","profile":"SSD2","add":16,"warmup":"200ms"},{"at":"2.5s","profile":"SSD2","remove":16}]`,
		`[{"at":"0s","rate_iops":3000},{"at":"1.5s","rate_iops":1200}]`, uint64(42))
	f.Add(`[{"at":"1ms","profile":"HDD","remove":1}]`, `[]`, uint64(7))
	f.Add(`[{"at":"0s","profile":"SSD2","add":0}]`, `[{"at":"1s","rate_iops":-3}]`, uint64(0))
	f.Add(`[{"at":"1s","profile":"SSD2","add":1},{"at":"1s","profile":"SSD2","remove":1}]`, `[{"at":"0s","rate_iops":1}]`, uint64(9))
	f.Fuzz(func(t *testing.T, churnJSON, arrivalsJSON string, seed uint64) {
		var churn []ChurnEventSpec
		var arr []RateStepSpec
		if err := json.Unmarshal([]byte(churnJSON), &churn); err != nil {
			return
		}
		if err := json.Unmarshal([]byte(arrivalsJSON), &arr); err != nil {
			return
		}
		sp := BuiltIn("churn")
		sp.Seed = seed
		sp.Fleet.Churn = churn
		sp.Fleet.Arrivals = arr
		if err := sp.Validate(); err != nil {
			if !strings.Contains(err.Error(), "scenario: ") {
				t.Fatalf("rejection without a path: %v", err)
			}
			return
		}
		canon, err := sp.Canonical()
		if err != nil {
			t.Fatalf("validated churn spec failed to canonicalize: %v", err)
		}
		sp2, err := Parse(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon)
		}
		canon2, err := sp2.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical encoding is not a fixed point:\n--- first\n%s\n--- second\n%s", canon, canon2)
		}
		svc, err := sp.ServeSpec(sp.Runtime.D())
		if err != nil {
			t.Fatalf("validated churn spec failed to build a serving spec: %v", err)
		}
		if len(svc.Churn) != len(churn) || len(svc.Rates) != len(arr) {
			t.Fatalf("stanzas dropped in the build: %d/%d churn, %d/%d rates",
				len(svc.Churn), len(churn), len(svc.Rates), len(arr))
		}
	})
}

// FuzzGridExpand fuzzes the grid stanza in isolation: arbitrary axis
// values either fail validation with a path-named error or expand into
// a family satisfying the full expansion contract.
func FuzzGridExpand(f *testing.F) {
	f.Add(`{"budgets":["max","0s:11pd"],"fleet_sizes":[4,8],"fault_seeds":[1,2]}`, uint64(42))
	f.Add(`{"rates":[3000,7000],"replicas":[1,2],"fault_fracs":[0,0.5]}`, uint64(7))
	f.Add(`{"fleet_sizes":[]}`, uint64(0))
	f.Add(`{"budgets":["0s:14.6pd","0s:14.60pd"]}`, uint64(1))
	f.Fuzz(func(t *testing.T, gridJSON string, seed uint64) {
		var g GridSpec
		if err := json.Unmarshal([]byte(gridJSON), &g); err != nil {
			return
		}
		sp := BuiltIn("fleet")
		sp.Seed = seed
		sp.Runtime = Duration(250 * time.Millisecond) // holds the default 100 ms control period
		sp.Grid = &g
		if err := sp.Validate(); err != nil {
			if !strings.Contains(err.Error(), "scenario: ") {
				t.Fatalf("rejection without a path: %v", err)
			}
			return
		}
		checkExpansion(t, sp)
	})
}
