package scenario

import (
	"bytes"
	"fmt"
	"io/fs"
	"strings"

	"wattio/scenarios"
)

// BuiltIn parses the named built-in scenario, scenarios/<name>.json,
// into a fresh Spec, or returns nil if there is no such file. The files
// are embedded at build time, so one that does not parse is a defect of
// the build, and BuiltIn panics naming it.
func BuiltIn(name string) *Spec {
	file := name + ".json"
	b, err := scenarios.Files.ReadFile(file)
	if err != nil {
		return nil
	}
	sp, err := Parse(bytes.NewReader(b))
	if err != nil {
		panic(fmt.Sprintf("scenarios/%s: %v", file, err))
	}
	return sp
}

// BuiltInNames lists the built-in scenarios in sorted order.
func BuiltInNames() []string {
	files, _ := fs.Glob(scenarios.Files, "*.json") // the pattern is well-formed
	for i, f := range files {
		files[i] = strings.TrimSuffix(f, ".json")
	}
	return files
}

// Default returns the built-in scenario a bare `-exp` invocation runs:
// the experiment's own built-in when it has one (fleet, chaos), else
// the paper-default suite narrowed to that experiment id.
func Default(expID string) *Spec {
	switch expID {
	case "fleet", "chaos":
		return BuiltIn(expID)
	}
	sp := BuiltIn("paper-default")
	sp.Experiment = expID
	return sp
}
