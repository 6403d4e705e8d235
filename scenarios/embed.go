// Package scenarios embeds the built-in scenario specs, one canonical
// JSON file each. internal/scenario serves them by name; edit a file
// here and run `powerfleet scenario -w` to change a built-in.
package scenarios

import "embed"

// Files holds every scenarios/*.json spec.
//
//go:embed *.json
var Files embed.FS
