package experiments

import (
	"strings"
	"testing"

	"wattio/internal/scenario"
)

// TestChurnRuns runs the churn experiment at its default spec, the one
// `powerbench -exp churn` runs. runChurn fails unless groups both join
// and retire, the drain finishes inside the horizon, and the cap,
// tracking and drift gates hold.
func TestChurnRuns(t *testing.T) {
	e, ok := ByID("churn")
	if !ok {
		t.Fatal("churn experiment not registered")
	}
	var sb strings.Builder
	if err := e.Run(scenario.Default("churn"), &sb); err != nil {
		t.Fatalf("churn: %v\n%s", err, sb.String())
	}
}
