// Package other is a fixture that exports the same name as lib.
package other

// Shared is named by cmd/tool.
func Shared() {}
