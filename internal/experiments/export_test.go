package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// exportSpec is deliberately tiny: export tests exercise format, not
// physics (the shape tests above cover that).
var exportSpec = boundedSpec(500*time.Millisecond, 64<<20)

func TestExportCSVFigures(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]string{
		"fig3": {"fig3_power.csv"},
		"fig8": {"fig8.csv"},
		"fig9": {"fig9.csv"},
	}
	for id, wantFiles := range cases {
		t.Run(id, func(t *testing.T) {
			files, err := ExportCSV(id, exportSpec, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != len(wantFiles) {
				t.Fatalf("wrote %v, want %v", files, wantFiles)
			}
			for i, f := range files {
				if filepath.Base(f) != wantFiles[i] {
					t.Errorf("file %d = %s, want %s", i, filepath.Base(f), wantFiles[i])
				}
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(string(data)), "\n")
				if len(lines) < 2 {
					t.Errorf("%s has no data rows", f)
				}
				header := lines[0]
				if !strings.Contains(header, ",") {
					t.Errorf("%s header %q not CSV", f, header)
				}
				// Every row has the header's column count.
				cols := strings.Count(header, ",")
				for _, l := range lines[1:] {
					if strings.Count(l, ",") != cols {
						t.Errorf("%s ragged row %q", f, l)
					}
				}
			}
		})
	}
}

func TestExportCSVFig7Traces(t *testing.T) {
	dir := t.TempDir()
	files, err := ExportCSV("fig7", exportSpec, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("wrote %d files, want 2", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time_ms,power_w\n") {
		t.Errorf("trace CSV header wrong: %q", string(data[:20]))
	}
}

func TestExportCSVUnknownID(t *testing.T) {
	if _, err := ExportCSV("table1", exportSpec, t.TempDir()); !errors.Is(err, ErrNoCSV) {
		t.Errorf("table1 (no tabular exporter): err = %v, want ErrNoCSV", err)
	}
	if _, err := ExportCSV("nope", exportSpec, t.TempDir()); !errors.Is(err, ErrNoCSV) {
		t.Errorf("unknown id: err = %v, want ErrNoCSV", err)
	}
}
