// Package lib is a fixture for the dead-exports scanner.
package lib

// Used is named by cmd/tool.
func Used() {}

// PerfOnly is named only by a perfbench/ non-test file.
func PerfOnly() {}

func TestOnly() {} // named only by lib_test.go

// Thing is named by cmd/tool.
type Thing struct{}

// MarshalJSON is allowlisted.
func (Thing) MarshalJSON() ([]byte, error) { return nil, nil }

// TestOnlyMethod is named only by lib_test.go.
// It is reported with its receiver type.
func (*Thing) TestOnlyMethod() {}

func unexported() {}

// Shared is named only by lib_test.go; other.Shared, which cmd/tool
// names, does not keep it alive.
func Shared() {}
