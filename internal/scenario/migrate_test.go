package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wattio/internal/sim"
)

// v1Fixture is the checked-in pre-migration spec: the version-1
// stepped-budget scenario exactly as PR 5 shipped it.
func v1Fixture(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "v1-stepped-budget.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMigrateV1Fixture runs the real v1 file through Migrate and pins
// the canonical-oracle property: the migrated spec's canonical encoding
// is a parse fixed point, and re-migrating it reports ErrAlreadyCurrent.
func TestMigrateV1Fixture(t *testing.T) {
	sp, err := Migrate(v1Fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Version != Version {
		t.Fatalf("migrated version %d, want %d", sp.Version, Version)
	}
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := Parse(bytes.NewReader(canon))
	if err != nil {
		t.Fatalf("migrated canonical form does not parse: %v", err)
	}
	canon2, err := sp2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, canon2) {
		t.Fatalf("migrate -> canonical -> parse is not a fixed point:\n--- first\n%s\n--- second\n%s", canon, canon2)
	}
	// The migration oracle: the v1 fixture migrates to the committed
	// scenarios/stepped-budget.json, which TestScenarioFilesCanonical
	// pins to the built-in spec byte for byte.
	want, err := BuiltIn("stepped-budget").Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, want) {
		t.Fatalf("migrated v1 fixture differs from the stepped-budget spec:\n--- migrated\n%s\n--- want\n%s", canon, want)
	}
	if _, err := Migrate(canon); !errors.Is(err, ErrAlreadyCurrent) {
		t.Fatalf("re-migrating current spec: %v, want ErrAlreadyCurrent", err)
	}
}

// TestMigrateBuildEquivalence proves the migration is semantics-
// preserving: the migrated spec materializes the identical serving
// configuration, devices, and jobs as the version-1 original (decoded
// leniently, since this build's Validate refuses v1).
func TestMigrateBuildEquivalence(t *testing.T) {
	raw := v1Fixture(t)
	var v1 Spec
	if err := json.Unmarshal(raw, &v1); err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 {
		t.Fatalf("fixture version %d, want the preserved v1 file", v1.Version)
	}
	migrated, err := Migrate(raw)
	if err != nil {
		t.Fatal(err)
	}

	// Everything except the version field must be untouched.
	v1.Version = Version
	b1, _ := json.Marshal(&v1)
	b2, _ := json.Marshal(migrated)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("migration changed more than the version:\n--- v1+bump\n%s\n--- migrated\n%s", b1, b2)
	}

	// And the built artifacts agree: same serving spec...
	ss1, err := v1.ServeSpec(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := migrated.ServeSpec(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(ss1)
	j2, _ := json.Marshal(ss2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("serve specs differ:\n%s\n%s", j1, j2)
	}
	// ...and identical device materialization.
	for _, sp := range []*Spec{&v1, migrated} {
		eng := sim.NewEngine()
		if _, err := sp.BuildDevices(eng, sim.NewRNG(sp.Seed), sim.NewRNG(sp.FaultSeed)); err != nil {
			t.Fatalf("%s: BuildDevices: %v", sp.Name, err)
		}
	}
}

// TestMigrateAllBuiltinsRoundTrip: every built-in, re-encoded as v1,
// migrates back to a spec canonically identical to the built-in.
// Gridded built-ins are skipped — no v1 encoder could have written one.
func TestMigrateAllBuiltinsRoundTrip(t *testing.T) {
	for _, name := range BuiltInNames() {
		sp := BuiltIn(name)
		if sp.Grid != nil {
			continue
		}
		down := sp.Clone()
		down.Version = 1
		b, err := json.Marshal(down)
		if err != nil {
			t.Fatal(err)
		}
		up, err := Migrate(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ := sp.Canonical()
		got, _ := up.Canonical()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: migrated spec drifted from the built-in", name)
		}
	}
}

// TestMigrateRejections: malformed input fails loudly with the
// offending path and never panics.
func TestMigrateRejections(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"not json", `hello`, "migrate"},
		{"unknown field", `{"version":1,"name":"m","experiment":"all","seed":0,"sizee":3}`, "sizee"},
		{"trailing data", `{"version":1,"name":"m","experiment":"all","seed":0}{}`, "trailing data"},
		{"unknown version", `{"version":7,"name":"m","experiment":"all","seed":0}`, "version"},
		{"v1 with grid", `{"version":1,"name":"m","experiment":"fleet","seed":0,"grid":{"fleet_sizes":[4]}}`, "grid"},
		{"invalid after bump", `{"version":1,"name":" ","experiment":"all","seed":0}`, "name"},
		{"bad nested value", `{"version":1,"name":"m","experiment":"fleet","seed":0,"fleet":{"fault_frac":3}}`, "fleet.fault_frac"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := Migrate([]byte(tc.body))
			if err == nil {
				t.Fatalf("accepted: %s -> %+v", tc.body, sp)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
