package main

import (
	"os"
	"path/filepath"
	"slices"
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

// overrideSpec is a fleet scenario whose every stanza field a fleet
// flag overrides holds a value no flag case below restates. Its meso
// stanza is off but carries group settings.
const overrideSpec = `{
  "version": 2,
  "name": "override",
  "experiment": "fleet",
  "runtime": "250ms",
  "seed": 42,
  "fault_seed": 1,
  "fleet": {
    "size": 8,
    "replicas": 2,
    "rate_iops": 4000,
    "budget": "0s:14pd",
    "fault_frac": 0.5,
    "meso": {"enable": false, "group_min": 4, "probes": 1}
  }
}
`

// TestFleetFlagsOverrideSpec: each fleet flag lands in the spec's fleet
// stanza. Running the spec with the flag must print byte for byte what
// the spec with that field edited prints, and not what the spec alone
// prints. An explicitly set zero (-fleetfaults 0) overrides the spec
// too.
func TestFleetFlagsOverrideSpec(t *testing.T) {
	base := writeSpec(t, "base.json", overrideSpec)
	report := func(args ...string) string {
		t.Helper()
		out := filepath.Join(t.TempDir(), "out.txt")
		if code, _, errw := runCLI(append(args, "-out", out)...); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errw)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	plain := report("-scenario", base)
	for _, tc := range []struct {
		flags    []string
		old, new string // the spec edit the flags stand for
	}{
		{[]string{"-fleet", "16"}, `"size": 8`, `"size": 16`},
		{[]string{"-replicas", "4"}, `"replicas": 2`, `"replicas": 4`},
		{[]string{"-rate", "2000"}, `"rate_iops": 4000`, `"rate_iops": 2000`},
		{[]string{"-budget", "max"}, `"budget": "0s:14pd"`, `"budget": "max"`},
		{[]string{"-fleetfaults", "0"}, `"fault_frac": 0.5`, `"fault_frac": 0`},
		{[]string{"-meso"}, `"enable": false`, `"enable": true`},
		{[]string{"-mesogroup", "6"}, `"enable": false, "group_min": 4`, `"enable": true, "group_min": 6`},
		{[]string{"-mesoprobes", "2"}, `"enable": false, "group_min": 4, "probes": 1`, `"enable": true, "group_min": 4, "probes": 2`},
	} {
		t.Run(tc.flags[0], func(t *testing.T) {
			edited := writeSpec(t, "edited.json", strings.Replace(overrideSpec, tc.old, tc.new, 1))
			got := report(append([]string{"-scenario", base}, tc.flags...)...)
			if want := report("-scenario", edited); got != want {
				t.Errorf("%v differs from the spec edit %s:\n--- flags\n%s\n--- edited spec\n%s", tc.flags, tc.new, got, want)
			}
			if got == plain {
				t.Errorf("%v left the report unchanged:\n%s", tc.flags, got)
			}
		})
	}
}

// TestMesoProbesNeedGroupParking: -mesoprobes turns the meso tier on but
// not group parking, so without -mesogroup the spec fails validation
// under the probe count's own path.
func TestMesoProbesNeedGroupParking(t *testing.T) {
	code, out, errw := runCLI("-exp", "fleet", "-mesoprobes", "3")
	if code != 2 || out != "" || !strings.Contains(errw, "fleet.meso.probes") {
		t.Fatalf("exit %d, %d bytes of stdout, stderr: %s", code, len(out), errw)
	}
}

// TestMesoFlagsReachMesoExperiment: -meso gives the run's spec an
// enabled meso stanza, so the meso experiment pair-runs the attached
// fleet rather than its built-in 64-device one, as it does for a
// -scenario file with an enabled meso stanza. The 2 s quick horizon is
// too short for the experiment's 1% energy gate, so only which fleet
// ran is checked.
func TestMesoFlagsReachMesoExperiment(t *testing.T) {
	code, out, errw := runCLI("-exp", "meso", "-meso", "-fleet", "32")
	if code == 2 || !strings.Contains(out, "fleet: 32 devices") {
		t.Fatalf("exit %d, stderr: %s\nstdout:\n%s", code, errw, out)
	}
}

// TestWriteFailuresExit1: a results or CSV file that cannot be written
// fails the run, whether the failure is the first write, the close or
// creating the CSV directory.
func TestWriteFailuresExit1(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	// A CSV directory whose file is a link to /dev/full: the directory
	// and the file open, and every write fails.
	csvDir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(csvDir, "fig3_power.csv")); err != nil {
		t.Fatal(err)
	}
	tiny := writeSpec(t, "tiny.json", tinySpec)
	for _, args := range [][]string{
		{"-exp", "standby", "-out", "/dev/full"},
		{"-exp", "fig3", "-csvdir", "/dev/full"},
		{"-scenario", tiny, "-exp", "fig3", "-csvdir", csvDir},
	} {
		if code, _, errw := runCLI(args...); code != 1 {
			t.Errorf("%v: exit %d, stderr: %s", args, code, errw)
		}
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

// TestCSVDirFollowsScenarioDevices: -csvdir writes the CSV from the run
// that prints the report, so a fig10 spec's run writes one model file
// for each device its text prints, and nothing else.
func TestCSVDirFollowsScenarioDevices(t *testing.T) {
	spec := writeSpec(t, "fig10.json", `{"version":2,"name":"fig10","experiment":"fig10","seed":42,"runtime":"50ms","total_bytes":16777216}`)
	dir := t.TempDir()
	code, out, errw := runCLI("-scenario", spec, "-csvdir", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	devices := []string{"HDD", "SSD1", "SSD2", "SSD3"}
	var want []string
	for _, d := range devices {
		want = append(want, "fig10_"+d+".csv")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("csvdir holds %v, want %v", got, want)
	}
	for i, d := range devices {
		for _, line := range []string{"\n" + d + ": ", "wrote " + filepath.Join(dir, want[i])} {
			if !strings.Contains(out, line) {
				t.Errorf("stdout missing %q:\n%s", line, out)
			}
		}
	}
}
