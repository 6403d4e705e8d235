package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wattio/internal/scenario"
)

// fleetSpec keeps the serving run small enough for the unit suite
// while still exercising replication, faults, and all three budget
// phases: it is the spec `powerbench -exp fleet -fleet 12 -replicas 2
// -rate 9000 -fleetfaults 0.25` runs, shortened to 600 ms.
func fleetSpec() *scenario.Spec {
	sp := scenario.BuiltIn("fleet")
	sp.Runtime = scenario.Duration(600 * time.Millisecond)
	f := sp.Fleet
	f.Size, f.Replicas, f.RateIOPS, f.FaultFrac = 12, 2, 9000, 0.25
	return sp
}

// TestFleetRuns runs the fleet experiment, whose cap and tracking gates
// fail the run, on a small faulted fleet and on the stepped-budget
// scenario, whose fault script drops one device mid-run.
func TestFleetRuns(t *testing.T) {
	e, ok := ByID("fleet")
	if !ok {
		t.Fatal("fleet experiment not registered")
	}
	for name, sp := range map[string]*scenario.Spec{
		"flags":          fleetSpec(),
		"stepped-budget": scenario.BuiltIn("stepped-budget"),
	} {
		t.Run(name, func(t *testing.T) {
			var sb strings.Builder
			if err := e.Run(sp, &sb, nil); err != nil {
				t.Fatalf("fleet: %v\n%s", err, sb.String())
			}
			out := sb.String()
			for _, want := range []string{"== Fleet serving", "throughput:", "budget W", "tracking OK", "power-cap probe OK"} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
			// A fleet without the meso tier or churn stanzas reports neither.
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "meso:") || strings.HasPrefix(line, "churn:") {
					t.Errorf("meso-off, churn-off report has %q:\n%s", line, out)
				}
			}
		})
	}
}

// TestFleetDeterministicOutput pins the experiment's whole report: two
// runs must print byte-identical text, faults included.
func TestFleetDeterministicOutput(t *testing.T) {
	e, _ := ByID("fleet")
	var a, b strings.Builder
	if err := e.Run(fleetSpec(), &a, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(fleetSpec(), &b, nil); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("fleet output not reproducible:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
}

func TestFleetBadBudgetFlag(t *testing.T) {
	e, _ := ByID("fleet")
	sp := fleetSpec()
	sp.Fleet.Budget = "0s:nonsense"
	var sb strings.Builder
	if err := e.Run(sp, &sb, nil); err == nil {
		t.Fatal("malformed budget schedule accepted")
	}
}

// TestFleetSpecDefaults: a spec without a fleet stanza, such as the
// paper-default suite, serves the default fleet.
func TestFleetSpecDefaults(t *testing.T) {
	spec, err := FleetSpec(scenario.BuiltIn("paper-default"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Size != 64 || spec.RateIOPS != 7000 {
		t.Fatalf("defaults not applied: %+v", spec)
	}
	if len(spec.Budget) != 3 {
		t.Fatalf("default schedule has %d steps, want 3", len(spec.Budget))
	}
	if spec.Budget[1].FleetW >= spec.Budget[0].FleetW || spec.Budget[2].FleetW <= spec.Budget[1].FleetW {
		t.Fatalf("default schedule is not a curtail-then-recover walk: %+v", spec.Budget)
	}
}

// TestFleetSpecFromScenario checks the spec pipeline end to end: a
// declarative scenario materializes exactly the serving spec it
// describes, fault scripts included.
func TestFleetSpecFromScenario(t *testing.T) {
	spec, err := FleetSpec(scenario.BuiltIn("stepped-budget"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Size != 64 || spec.Replicas != 2 {
		t.Fatalf("scenario fleet shape not applied: %+v", spec)
	}
	if len(spec.Budget) != 3 || spec.Budget[0].FleetW != 14.6*64 || spec.Budget[1].At != 600*time.Millisecond {
		t.Fatalf("scenario budget schedule not applied: %+v", spec.Budget)
	}
	if len(spec.Faults) != 1 || spec.Faults[0].Device != "SSD2#00003" {
		t.Fatalf("scenario fault script not applied: %+v", spec.Faults)
	}
}

// TestFleetScenarioFlagEquivalence pins the acceptance contract: the
// fleet that `powerbench -exp all` serves from the paper-default suite,
// which has no fleet stanza, is the built-in "fleet" scenario that
// `powerbench -exp fleet` serves.
func TestFleetScenarioFlagEquivalence(t *testing.T) {
	flags, err := FleetSpec(scenario.BuiltIn("paper-default"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := FleetSpec(scenario.BuiltIn("fleet"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", flags) != fmt.Sprintf("%+v", spec) {
		t.Fatalf("flag and scenario specs diverge:\nflags: %+v\nspec:  %+v", flags, spec)
	}
}

// TestChurnRuns runs the churn experiment at its default spec, the one
// `powerbench -exp churn` runs, through the fleet runner. The run fails
// unless groups both join and retire, the drain finishes inside the
// horizon, and the cap, tracking and drift gates hold.
func TestChurnRuns(t *testing.T) {
	e, ok := ByID("churn")
	if !ok {
		t.Fatal("churn experiment not registered")
	}
	var sb strings.Builder
	if err := e.Run(scenario.Default("churn"), &sb, nil); err != nil {
		t.Fatalf("churn: %v\n%s", err, sb.String())
	}
	for _, want := range []string{"== Lane lifecycle", "\nchurn: ", "\nmeso: ", "tracking OK", "power-cap probe OK"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q:\n%s", want, sb.String())
		}
	}
}
