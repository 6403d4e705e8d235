package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wattio/internal/calib"
	"wattio/internal/core"
	"wattio/internal/scenario"
)

// writeModel saves a small two-state model for dev into dir and returns
// its path.
func writeModel(t *testing.T, dir, dev string) string {
	t.Helper()
	samples := []core.Sample{
		{
			Config: core.Config{Device: dev, PowerState: 0, Random: true, Write: true, ChunkBytes: 256 << 10, Depth: 64},
			PowerW: 12, ThroughputMBps: 3000, AvgLat: 200 * time.Microsecond, P99Lat: time.Millisecond,
		},
		{
			Config: core.Config{Device: dev, PowerState: 2, Random: true, Write: true, ChunkBytes: 256 << 10, Depth: 64},
			PowerW: 6, ThroughputMBps: 1500, AvgLat: 400 * time.Microsecond, P99Lat: 4 * time.Millisecond,
		},
	}
	m, err := core.NewModel(dev, samples)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.ToLower(dev)+".json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI drives the powerfleet dispatcher exactly as main does and
// returns the exit code with both output streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestInfo(t *testing.T) {
	dir := t.TempDir()
	path := writeModel(t, dir, "SSD2")
	code, out, stderr := runCLI("info", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"SSD2: 2 points", "Pareto frontier", "12.00 W", "3000 MB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q:\n%s", want, out)
		}
	}
}

// TestBuildSubcommand sweeps a small model, reads it back with info,
// and checks the progress line reaches the subcommand's error writer.
func TestBuildSubcommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ssd3.json")
	code, out, stderr := runCLI("build", "-device", "SSD3", "-runtime", "50ms", "-bytes", "16777216", "-o", path)
	if code != 0 {
		t.Fatalf("build exit %d, stderr: %s", code, stderr)
	}
	if want := "sweeping SSD3 (randwrite grid, 50ms/16777216 bytes per point)...\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
	if !strings.HasPrefix(out, "wrote "+path+": 36 operating points") {
		t.Errorf("build output: %s", out)
	}
	code, out, stderr = runCLI("info", path)
	if code != 0 {
		t.Fatalf("info exit %d, stderr: %s", code, stderr)
	}
	if !strings.HasPrefix(out, "SSD3: 36 points\n") || !strings.Contains(out, "Pareto frontier") {
		t.Errorf("info output:\n%s", out)
	}

	if code, _, stderr := runCLI("build", "-rw", "trim", "-o", path); code != 1 || !strings.Contains(stderr, `unknown -rw "trim"`) {
		t.Errorf("bad -rw: exit %d, stderr %s", code, stderr)
	}
}

func TestPlanTwoModels(t *testing.T) {
	dir := t.TempDir()
	a := writeModel(t, dir, "SSD1")
	b := writeModel(t, dir, "SSD2")

	code, out, stderr := runCLI("plan", "-budget", "18", a, b)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	// 18 W fits one device at ps0 (12 W) plus one at ps2 (6 W).
	if !strings.Contains(out, "plan 18.00 W, 4500 MB/s") {
		t.Errorf("unexpected plan:\n%s", out)
	}

	if code, _, stderr := runCLI("plan", "-budget", "5", a, b); code == 0 {
		t.Error("infeasible budget planned successfully")
	} else if !strings.Contains(stderr, "no assignment fits") {
		t.Errorf("unhelpful infeasibility error: %s", stderr)
	}
}

func TestPlanNeedsBudget(t *testing.T) {
	dir := t.TempDir()
	path := writeModel(t, dir, "SSD2")
	if code, _, stderr := runCLI("plan", path); code == 0 || !strings.Contains(stderr, "-budget") {
		t.Errorf("missing -budget not rejected: exit %d, stderr %s", code, stderr)
	}
}

func TestCurtailAndSLO(t *testing.T) {
	dir := t.TempDir()
	path := writeModel(t, dir, "SSD2")

	code, out, stderr := runCLI("curtail", "-reduce", "0.4", path)
	if code != 0 {
		t.Fatalf("curtail exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "sheds") {
		t.Errorf("curtail output:\n%s", out)
	}

	code, out, stderr = runCLI("slo", "-p99", "2ms", path)
	if code != 0 {
		t.Fatalf("slo exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "ps0") {
		t.Errorf("slo should pick ps0 (only state meeting 2ms p99):\n%s", out)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	if code, _, stderr := runCLI("frobnicate"); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Errorf("unknown subcommand: exit %d, stderr %s", code, stderr)
	}
	if code, _, _ := runCLI(); code != 2 {
		t.Errorf("bare invocation should exit 2, got %d", code)
	}
}

// TestBadModelFiles is the regression suite for model-load failure
// modes: every corrupt input must produce a clear error naming the
// file and a non-zero exit — never a panic or a silent zero-value plan.
func TestBadModelFiles(t *testing.T) {
	dir := t.TempDir()
	good, err := os.ReadFile(writeModel(t, dir, "SSD2"))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		content string
		wantErr string
	}{
		{"empty file", "", "decoding model"},
		{"malformed json", "{not json", "decoding model"},
		{"truncated", string(good[:len(good)/2]), "decoding model"},
		{"trailing garbage", string(good) + "{\"version\":1}", "trailing data"},
		{"wrong version", `{"version":99,"device":"X","samples":[{"power_state":0,"power_w":1,"mbps":1}]}`, "version 99"},
		{"unknown field", `{"version":1,"device":"X","zap":1,"samples":[]}`, "decoding model"},
		{"no samples", `{"version":1,"device":"X","samples":[]}`, "at least one sample"},
		{"zero power", `{"version":1,"device":"X","samples":[{"power_state":0,"power_w":0,"mbps":10}]}`, "non-positive power"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "bad.json")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, sub := range []string{"info", "plan"} {
				args := []string{sub, path}
				if sub == "plan" {
					args = []string{sub, "-budget", "10", path}
				}
				code, out, stderr := runCLI(args...)
				if code == 0 {
					t.Fatalf("%s accepted corrupt model; stdout:\n%s", sub, out)
				}
				if !strings.Contains(stderr, tc.wantErr) {
					t.Errorf("%s error %q does not mention %q", sub, stderr, tc.wantErr)
				}
				if !strings.Contains(stderr, "bad.json") {
					t.Errorf("%s error does not name the file: %s", sub, stderr)
				}
			}
		})
	}
}

// TestScenarioSubcommand covers the spec-file gate: canonical files
// pass, drifted-but-valid files fail without -w and are rewritten with
// it, and invalid specs fail with the offending path.
func TestScenarioSubcommand(t *testing.T) {
	dir := t.TempDir()
	canon, err := scenario.BuiltIn("fleet").Canonical()
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(good, canon, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runCLI("scenario", good)
	if code != 0 {
		t.Fatalf("canonical spec rejected: exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "ok (fleet, experiment fleet)") {
		t.Errorf("scenario output:\n%s", out)
	}

	// Semantically identical but re-ordered/re-indented: valid, not
	// canonical.
	drifted := filepath.Join(dir, "drifted.json")
	if err := os.WriteFile(drifted, append([]byte("\n"), canon...), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI("scenario", drifted); code == 0 || !strings.Contains(stderr, "not canonical") {
		t.Fatalf("drifted spec passed: exit %d, stderr: %s", code, stderr)
	}
	if code, _, stderr := runCLI("scenario", "-w", drifted); code != 0 {
		t.Fatalf("scenario -w failed: %s", stderr)
	}
	got, err := os.ReadFile(drifted)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(canon) {
		t.Fatalf("-w did not rewrite canonically:\n%s", got)
	}
	if code, _, stderr := runCLI("scenario", drifted); code != 0 {
		t.Fatalf("rewritten spec still rejected: %s", stderr)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":2,"name":"x","experiment":"fleet","seed":1,"fleet":{"size":-4}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI("scenario", bad); code == 0 || !strings.Contains(stderr, "fleet.size") {
		t.Fatalf("invalid spec not rejected by path: exit %d, stderr: %s", code, stderr)
	}

	if code, _, stderr := runCLI("scenario"); code == 0 || !strings.Contains(stderr, "at least one") {
		t.Fatalf("bare scenario subcommand: exit %d, stderr: %s", code, stderr)
	}
}

// TestCalibrateSubcommand fits a learned model through the CLI and
// reloads the written file through the strict calib loader — the
// end-to-end check that `powerfleet calibrate` emits a usable,
// versioned model and reports the cross-validated fit quality.
func TestCalibrateSubcommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ssd3.json")
	code, out, stderr := runCLI("calibrate", "-class", "SSD3", "-o", path, "-runtime", "800ms")
	if code != 0 {
		t.Fatalf("calibrate exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "calibrating SSD3") {
		t.Errorf("progress line missing from stderr: %q", stderr)
	}
	for _, want := range []string{"wrote " + path, "CV R2", "MAPE"} {
		if !strings.Contains(out, want) {
			t.Errorf("calibrate output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := calib.Decode(data)
	if err != nil {
		t.Fatalf("written model does not reload: %v", err)
	}
	if m.Class != "SSD3" || len(m.States) != 1 {
		t.Errorf("unexpected model: class %q, %d states", m.Class, len(m.States))
	}

	if code, _, stderr := runCLI("calibrate", "-class", "NoSuchClass"); code == 0 || !strings.Contains(stderr, "NoSuchClass") {
		t.Errorf("unknown class: exit %d, stderr %s", code, stderr)
	}
	if code, _, stderr := runCLI("calibrate", "-class", "SSD3", "-folds", "1"); code == 0 || !strings.Contains(stderr, "folds") {
		t.Errorf("bad folds: exit %d, stderr %s", code, stderr)
	}
}

func TestMissingFile(t *testing.T) {
	code, _, stderr := runCLI("info", filepath.Join(t.TempDir(), "nope.json"))
	if code == 0 || !strings.Contains(stderr, "nope.json") {
		t.Errorf("missing file: exit %d, stderr %s", code, stderr)
	}
}

// TestScenarioMigrate: a stale version-1 file is rejected by the
// validation gate with the one-field edit that migrates it.
func TestScenarioMigrate(t *testing.T) {
	sp := scenario.BuiltIn("fleet")
	sp.Version = 1
	v1, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(old, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI("scenario", old); code == 0 || !strings.Contains(stderr, `set "version": 2`) {
		t.Fatalf("stale v1 spec should fail with the migration hint: exit %d, stderr: %s", code, stderr)
	}
}

// TestCampaignSubcommand runs the canonical campaign end to end through
// the CLI at two worker counts and requires the written artifacts to be
// byte-identical — the acceptance gate for the deterministic-parallel
// contract at the outermost layer.
func TestCampaignSubcommand(t *testing.T) {
	dir := t.TempDir()
	sp := scenario.BuiltIn("campaign")
	sp.Runtime = scenario.Duration(150 * time.Millisecond)
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "campaign.json")
	if err := os.WriteFile(specPath, canon, 0o644); err != nil {
		t.Fatal(err)
	}

	out1 := filepath.Join(dir, "serial")
	code, stdout, stderr := runCLI("campaign", "-scenario", specPath, "-parallel", "1", "-out", out1)
	if code != 0 {
		t.Fatalf("campaign exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"8 points", "b=2 x n=2 x fs=2", "b0-n0-fs0", "b1-n1-fs1", "wrote"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("campaign output missing %q:\n%s", want, stdout)
		}
	}

	outN := filepath.Join(dir, "parallel")
	if code, _, stderr := runCLI("campaign", "-scenario", specPath, "-parallel", "8", "-out", outN); code != 0 {
		t.Fatalf("parallel campaign exit %d, stderr: %s", code, stderr)
	}
	files, err := os.ReadDir(out1)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 9 { // merged report + 8 per-point reports
		t.Fatalf("wrote %d files, want 9", len(files))
	}
	if _, err := os.Stat(filepath.Join(out1, "campaign.json")); err != nil {
		t.Fatalf("merged report: %v", err)
	}
	for _, f := range files {
		a, err := os.ReadFile(filepath.Join(out1, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(outN, f.Name()))
		if err != nil {
			t.Fatalf("parallel run did not write %s: %v", f.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between -parallel 1 and -parallel 8", f.Name())
		}
	}

	// A built-in name resolves too, and bad arguments fail helpfully.
	if code, _, stderr := runCLI("campaign"); code == 0 || !strings.Contains(stderr, "-scenario") {
		t.Fatalf("bare campaign: exit %d, stderr: %s", code, stderr)
	}
	if code, _, stderr := runCLI("campaign", "-scenario", "no-such-thing"); code == 0 || !strings.Contains(stderr, "built-in") {
		t.Fatalf("unknown spec: exit %d, stderr: %s", code, stderr)
	}
	// A gridless spec named "campaign" would write its one point report
	// over the merged one.
	solo := scenario.BuiltIn("fleet")
	solo.Name = "campaign"
	canon, err = solo.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	soloPath := filepath.Join(dir, "solo.json")
	if err := os.WriteFile(soloPath, canon, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI("campaign", "-scenario", soloPath, "-out", filepath.Join(dir, "solo")); code == 0 || !strings.Contains(stderr, "rename it") {
		t.Fatalf("gridless spec named campaign: exit %d, stderr: %s", code, stderr)
	}
	// Nor may its name lead the point report out of the -out directory.
	esc := scenario.BuiltIn("campaign")
	esc.Grid = nil
	esc.Name = "../escape"
	esc.Runtime = scenario.Duration(150 * time.Millisecond)
	canon, err = esc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	escPath := filepath.Join(dir, "escape-spec.json")
	if err := os.WriteFile(escPath, canon, 0o644); err != nil {
		t.Fatal(err)
	}
	escOut := filepath.Join(dir, "esc", "out")
	if code, _, stderr := runCLI("campaign", "-scenario", escPath, "-out", escOut); code == 0 || !strings.Contains(stderr, "outside") {
		t.Errorf("gridless spec named ../escape: exit %d, stderr: %s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "esc", "escape.json")); err == nil {
		t.Errorf("campaign wrote escape.json outside its -out directory")
	}
}
