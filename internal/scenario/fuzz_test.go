package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"wattio/internal/calib"
	"wattio/internal/catalog"
)

// FuzzScenarioRoundTrip fuzzes the whole spec pipeline: any input that
// parses must canonicalize to a parse fixed point, and any spec that
// passes validation must build a serving spec and, when gridded,
// expand — invalid specs never build, valid specs never fail to.
func FuzzScenarioRoundTrip(f *testing.F) {
	// ServeSpec fits the model of each profile a calib-enabled fleet
	// names, a sweep of seconds and several times that under coverage
	// instrumentation. Fits are memoized per class for the process, so
	// fitting every class here, in each fuzz worker before its per-input
	// hang timer starts, spares every input in the fuzz body that sweep.
	for _, class := range catalog.Names() {
		if _, err := calib.FitClass(class, calib.Options{}); err != nil {
			f.Fatal(err)
		}
	}
	for _, name := range BuiltInNames() {
		b, err := BuiltIn(name).Canonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"version":2,"name":"m","experiment":"all","seed":0}`))
	f.Add([]byte(`{"version":2,"name":"b","experiment":"fig4","scale":"paper","runtime":"1s","total_bytes":1048576,"seed":9}`))
	f.Add([]byte(`{"version":2,"name":"f","experiment":"fleet","runtime":"1s","seed":3,"fault_seed":5,` +
		`"fleet":{"size":8,"faults":[{"device":"SSD2#00001","windows":[` +
		`{"kind":"ioerror","start":"100ms","dur":"300ms","prob":0.25},{"kind":"cmdfail","start":"500ms","dur":"200ms"}]}]}}`))
	f.Add([]byte(`{"version":2,"name":"h","experiment":"fleet","runtime":"1s","seed":4,` +
		`"fleet":{"profiles":["SSD2","HDD"],"size":8,"replicas":2,"fault_frac":0.25,"budget":"0s:12pd,500ms:9pd"}}`))
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
	f.Add(`{"fleet_sizes":[4,8,16],"fault_seeds":[3]}`, uint64(7))
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
