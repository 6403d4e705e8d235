package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wattio/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenSpec is deliberately tiny: golden files pin the exact rendered
// output (calibration constants included) rather than paper accuracy,
// which the calibration tests already cover at realistic scale. It
// lists no devices, so the modeling experiments sweep the paper's
// default device set.
var goldenSpec = &scenario.Spec{
	Version:    scenario.Version,
	Name:       "golden",
	Experiment: "all",
	Runtime:    scenario.Duration(400 * time.Millisecond),
	TotalBytes: 64 << 20,
	Seed:       42,
}

// TestGoldenOutputs locks the rendered output of the direct-print
// experiments. Any change to a calibration constant, model equation, or
// report format shows up as a golden diff; refresh intentionally with
//
//	go test ./internal/experiments -run TestGoldenOutputs -update
func TestGoldenOutputs(t *testing.T) {
	for _, id := range []string{"table1", "headline", "standby"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			var buf bytes.Buffer
			if err := e.Run(goldenSpec, &buf, nil); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("experiment produced no output")
			}
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output differs from %s (refresh with -update if intended)\ngot:\n%s\nwant:\n%s",
					path, buf.Bytes(), want)
			}
		})
	}
}

// TestGoldenOutputsViaScenario is the spec-file half of the golden
// contract: running the same experiments from the paper-default
// scenario file, which lists its devices, must reproduce the golden
// bytes exactly — the declarative layer adds no drift.
func TestGoldenOutputsViaScenario(t *testing.T) {
	if *update {
		t.Skip("goldens are refreshed by TestGoldenOutputs")
	}
	s := boundedSpec(400*time.Millisecond, 64<<20)
	for _, id := range []string{"table1", "headline", "standby"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			var buf bytes.Buffer
			if err := e.Run(s, &buf, nil); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("scenario-driven run diverges from the golden flag-path output\ngot:\n%s\nwant:\n%s",
					buf.Bytes(), want)
			}
		})
	}
}
