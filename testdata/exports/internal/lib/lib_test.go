package lib

import "testing"

func TestLib(t *testing.T) {
	TestOnly()
	Shared()
	new(Thing).TestOnlyMethod()
	unexported()
}
