package experiments

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"wattio/internal/scenario"
)

// exportSpec is deliberately tiny: export tests exercise format, not
// physics (the shape tests above cover that).
var exportSpec = boundedSpec(500*time.Millisecond, 64<<20)

// runCSV runs one experiment with a CSV sink over a fresh directory and
// returns the paths the sink lists, after checking they are exactly the
// directory's contents.
func runCSV(t *testing.T, id string, sp *scenario.Spec) []string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	csv := &CSV{Dir: t.TempDir()}
	if err := e.Run(sp, io.Discard, csv); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(csv.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var listed, onDisk []string
	for _, f := range csv.Files {
		listed = append(listed, filepath.Base(f))
	}
	for _, de := range entries {
		onDisk = append(onDisk, de.Name())
	}
	sorted := slices.Clone(listed)
	slices.Sort(sorted)
	if !slices.Equal(sorted, onDisk) {
		t.Fatalf("sink lists %v, directory holds %v", listed, onDisk)
	}
	return csv.Files
}

// checkCSV fails unless path holds a header and at least one data row,
// every row with the header's column count.
func checkCSV(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Errorf("%s has no data rows", path)
	}
	header := lines[0]
	if !strings.Contains(header, ",") {
		t.Errorf("%s header %q not CSV", path, header)
	}
	cols := strings.Count(header, ",")
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != cols {
			t.Errorf("%s ragged row %q", path, l)
		}
	}
}

func baseNames(paths []string) []string {
	var out []string
	for _, p := range paths {
		out = append(out, filepath.Base(p))
	}
	return out
}

// TestExportCSVFigures: each figure adds its files to the sink from the
// run that prints it, and an experiment without tabular data adds none.
func TestExportCSVFigures(t *testing.T) {
	cases := map[string][]string{
		"fig3":    {"fig3_power.csv"},
		"fig8":    {"fig8.csv"},
		"fig9":    {"fig9.csv"},
		"standby": nil,
	}
	for id, want := range cases {
		t.Run(id, func(t *testing.T) {
			files := runCSV(t, id, exportSpec)
			if got := baseNames(files); !slices.Equal(got, want) {
				t.Fatalf("wrote %v, want %v", got, want)
			}
			for _, f := range files {
				checkCSV(t, f)
			}
		})
	}
}

func TestExportCSVFig7Traces(t *testing.T) {
	files := runCSV(t, "fig7", exportSpec)
	if got, want := baseNames(files), []string{"fig7a_enter.csv", "fig7b_exit.csv"}; !slices.Equal(got, want) {
		t.Fatalf("wrote %v, want %v", got, want)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time_ms,power_w\n") {
		t.Errorf("trace CSV header wrong: %q", string(data[:20]))
	}
}

// TestFig10CSVFollowsSpecDevices: fig10 writes one model file for each
// of the paper's four drives it sweeps, and nothing else.
func TestFig10CSVFollowsSpecDevices(t *testing.T) {
	files := runCSV(t, "fig10", boundedSpec(50*time.Millisecond, 16<<20))
	want := []string{"fig10_SSD1.csv", "fig10_SSD2.csv", "fig10_SSD3.csv", "fig10_HDD.csv"}
	if got := baseNames(files); !slices.Equal(got, want) {
		t.Fatalf("wrote %v, want %v", got, want)
	}
	for _, f := range files {
		checkCSV(t, f)
	}
}
