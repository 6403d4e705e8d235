package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wattio/internal/telemetry"
)

// runCLI invokes the CLI seam and returns (exit code, stdout, stderr).
func runCLI(args ...string) (int, string, string) {
	var out, errw strings.Builder
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func writeSpec(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tinySpec is a fleet scenario small enough for the unit suite.
const tinySpec = `{
  "version": 2,
  "name": "tiny",
  "experiment": "fleet",
  "runtime": "250ms",
  "seed": 42,
  "fault_seed": 1,
  "fleet": {
    "size": 8,
    "replicas": 2,
    "rate_iops": 4000
  }
}
`

func TestScenarioRuns(t *testing.T) {
	path := writeSpec(t, "tiny.json", tinySpec)
	code, out, errw := runCLI("-scenario", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out, "fleet: 8 devices") {
		t.Fatalf("scenario fleet size not applied:\n%s", out)
	}
}

// TestScenarioFlagOverride pins the layering rule: an explicitly-set
// flag beats the scenario, and re-stating the scenario's own value is a
// no-op (the -out files are byte-identical).
func TestScenarioFlagOverride(t *testing.T) {
	path := writeSpec(t, "tiny.json", tinySpec)
	dir := t.TempDir()

	outA := filepath.Join(dir, "a.txt")
	if code, _, errw := runCLI("-scenario", path, "-out", outA); code != 0 {
		t.Fatalf("base run failed: %s", errw)
	}
	outB := filepath.Join(dir, "b.txt")
	if code, _, errw := runCLI("-scenario", path, "-fleet", "8", "-out", outB); code != 0 {
		t.Fatalf("no-op override run failed: %s", errw)
	}
	a, _ := os.ReadFile(outA)
	b, _ := os.ReadFile(outB)
	if string(a) != string(b) {
		t.Fatalf("re-stating the spec's value changed the report:\n--- spec only\n%s\n--- spec + -fleet 8\n%s", a, b)
	}

	code, out, errw := runCLI("-scenario", path, "-fleet", "4")
	if code != 0 {
		t.Fatalf("override run failed: %s", errw)
	}
	if !strings.Contains(out, "fleet: 4 devices") {
		t.Fatalf("-fleet 4 did not override the spec's size 8:\n%s", out)
	}
}

func TestScenarioUnknownFieldRejected(t *testing.T) {
	path := writeSpec(t, "typo.json", strings.Replace(tinySpec, `"size"`, `"sizee"`, 1))
	code, _, errw := runCLI("-scenario", path)
	if code != 2 {
		t.Fatalf("unknown field accepted: exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(errw, "sizee") || !strings.Contains(errw, path) {
		t.Fatalf("error does not name the unknown field and file: %s", errw)
	}
}

func TestScenarioValidationNamesPath(t *testing.T) {
	path := writeSpec(t, "bad.json", strings.Replace(tinySpec, `"rate_iops": 4000`, `"rate_iops": 4000, "budget": "0s:junk"`, 1))
	code, _, errw := runCLI("-scenario", path)
	if code != 2 {
		t.Fatalf("bad budget accepted: exit %d", code)
	}
	if !strings.Contains(errw, "fleet.budget") {
		t.Fatalf("error does not name the offending path: %s", errw)
	}
}

// TestFleetFlagsCheckedUpFront: fleet flags that make the fleet invalid
// fail with the offending spec path before any experiment of the run
// prints a line.
func TestFleetFlagsCheckedUpFront(t *testing.T) {
	code, out, errw := runCLI("-exp", "all", "-fleet", "10", "-replicas", "4")
	if code != 2 || out != "" || !strings.Contains(errw, "fleet.replicas") {
		t.Fatalf("exit %d, %d bytes of stdout, stderr: %s", code, len(out), errw)
	}
}

// TestScenarioGridRejected: powerbench runs one configuration, so a
// campaign spec must be redirected to `powerfleet campaign`, not run as
// whichever point powerbench would silently pick.
func TestScenarioGridRejected(t *testing.T) {
	path := writeSpec(t, "grid.json", strings.Replace(tinySpec,
		`"fleet": {`, `"grid": {"fleet_sizes": [8, 16]},
  "fleet": {`, 1))
	code, _, errw := runCLI("-scenario", path)
	if code != 2 {
		t.Fatalf("campaign spec accepted: exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(errw, "powerfleet campaign") {
		t.Fatalf("error does not point at the campaign runner: %s", errw)
	}
}

// TestScenarioV1Hint: a stale version-1 spec names the one-field edit
// that migrates it.
func TestScenarioV1Hint(t *testing.T) {
	path := writeSpec(t, "v1.json", strings.Replace(tinySpec, `"version": 2`, `"version": 1`, 1))
	code, _, errw := runCLI("-scenario", path)
	if code != 2 || !strings.Contains(errw, `set "version": 2`) {
		t.Fatalf("v1 spec: exit %d, stderr: %s", code, errw)
	}
}

func TestScenarioMissingFile(t *testing.T) {
	code, _, errw := runCLI("-scenario", filepath.Join(t.TempDir(), "nope.json"))
	if code != 2 || !strings.Contains(errw, "nope.json") {
		t.Fatalf("missing spec file: exit %d, stderr: %s", code, errw)
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, errw := runCLI("-exp", "nope")
	if code != 2 || !strings.Contains(errw, `"nope"`) {
		t.Fatalf("unknown experiment: exit %d, stderr: %s", code, errw)
	}
}

// TestExpFlagOverridesScenarioExperiment: -exp layered on a spec picks
// the experiment while the spec still supplies seeds and bounds.
func TestExpFlagOverridesScenarioExperiment(t *testing.T) {
	path := writeSpec(t, "tiny.json", tinySpec)
	code, out, errw := runCLI("-scenario", path, "-exp", "table1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out, "Table 1") {
		t.Fatalf("-exp table1 not honored over spec experiment:\n%s", out)
	}
	if strings.Contains(out, "Fleet serving") {
		t.Fatalf("spec experiment ran despite -exp override:\n%s", out)
	}
}

// TestChaosMetrics drives -metrics end to end: the chaos experiment
// runs with a process-wide registry installed and prints its snapshot.
func TestChaosMetrics(t *testing.T) {
	t.Cleanup(func() { telemetry.SetDefault(nil) })
	code, out, errw := runCLI("-exp", "chaos", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	if !strings.Contains(out, "# telemetry snapshot") || !strings.Contains(out, "_total") {
		t.Fatalf("-metrics printed no snapshot:\n%s", out)
	}
}

func TestList(t *testing.T) {
	code, out, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, id := range []string{"fleet", "chaos", "fig10", "table1"} {
		if !strings.Contains(out, id) {
			t.Fatalf("-list missing %q:\n%s", id, out)
		}
	}
}
