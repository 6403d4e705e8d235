package lib

import "testing"

func TestLib(t *testing.T) {
	TestOnly()
	new(Thing).TestOnlyMethod()
	unexported()
}
