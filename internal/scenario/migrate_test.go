package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMigrateV1Fixture pins the version-1 migration hint: the
// checked-in version-1 stepped-budget spec, with its version field set
// to 2 and nothing else changed, parses to exactly the committed
// scenarios/stepped-budget.json, the built-in spec's own file.
func TestMigrateV1Fixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1-stepped-budget.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), `set "version": 2`) {
		t.Fatalf("v1 fixture: %v, want the one-field migration hint", err)
	}
	v2 := bytes.Replace(raw, []byte(`"version": 1`), []byte(`"version": 2`), 1)
	if bytes.Equal(v2, raw) {
		t.Fatal(`v1 fixture has no "version": 1 field to edit`)
	}
	sp, err := Parse(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("v1 fixture at version 2 does not parse: %v", err)
	}
	got, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "stepped-budget.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("v1 fixture at version 2 differs from scenarios/stepped-budget.json:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
