package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wattio/internal/scenario"
)

// fleetScale keeps the serving run small enough for the unit suite
// while still exercising replication, faults, and all three budget
// phases.
var fleetScale = Scale{
	Runtime:   600 * time.Millisecond,
	Seed:      42,
	FaultSeed: 1,
	Fleet:     FleetOptions{Size: 12, Replicas: 2, RateIOPS: 9000, FaultFrac: 0.25},
}

// TestFleetRuns runs the fleet experiment, whose cap and tracking gates
// fail the run, on a small faulted fleet and on the stepped-budget
// scenario, whose fault script drops one device mid-run.
func TestFleetRuns(t *testing.T) {
	e, ok := ByID("fleet")
	if !ok {
		t.Fatal("fleet experiment not registered")
	}
	for name, s := range map[string]Scale{
		"flags":          fleetScale,
		"stepped-budget": ScaleFor(scenario.BuiltIn("stepped-budget")),
	} {
		t.Run(name, func(t *testing.T) {
			var sb strings.Builder
			if err := e.Run(s, &sb); err != nil {
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

// TestFleetPrintsSpecTolerance: the tracking line reports the tolerance
// tracking is checked against, the scenario's fleet.cap_tol_frac.
func TestFleetPrintsSpecTolerance(t *testing.T) {
	e, _ := ByID("fleet")
	s := fleetScale
	s.Scenario = scenario.BuiltIn("fleet").Clone()
	s.Scenario.Fleet.CapTolFrac = 0.2
	var sb strings.Builder
	if err := e.Run(s, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(tol 20%)") {
		t.Errorf("output lacks %q:\n%s", "(tol 20%)", sb.String())
	}
}

// TestFleetDeterministicOutput pins the experiment's whole report: two
// runs must print byte-identical text, faults included.
func TestFleetDeterministicOutput(t *testing.T) {
	e, _ := ByID("fleet")
	var a, b strings.Builder
	if err := e.Run(fleetScale, &a); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(fleetScale, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("fleet output not reproducible:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
}

func TestFleetBadBudgetFlag(t *testing.T) {
	e, _ := ByID("fleet")
	s := fleetScale
	s.Fleet.Budget = "0s:nonsense"
	var sb strings.Builder
	if err := e.Run(s, &sb); err == nil {
		t.Fatal("malformed budget schedule accepted")
	}
}

func TestFleetSpecDefaults(t *testing.T) {
	spec, err := FleetSpec(Quick)
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
// Scale carrying a declarative scenario materializes exactly the
// serving spec the scenario describes, fault scripts included, and
// legacy flag overrides still win over the spec.
func TestFleetSpecFromScenario(t *testing.T) {
	s := Quick
	s.Scenario = scenario.BuiltIn("stepped-budget")
	s.Runtime = 2 * time.Second
	spec, err := FleetSpec(s)
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

	s.Fleet.Size = 32
	spec, err = FleetSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Size != 32 {
		t.Fatalf("flag override lost to scenario: size %d, want 32", spec.Size)
	}

	// -mesogroup implies -meso, also over a spec that switches the tier off.
	s.Scenario = scenario.BuiltIn("stepped-budget").Clone()
	s.Scenario.Fleet.Meso = &scenario.MesoSpec{Enable: false}
	s.Fleet = FleetOptions{MesoGroupMin: 16}
	spec, err = FleetSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Meso || spec.MesoGroupMin != 16 {
		t.Fatalf("-mesogroup 16 over a meso-off spec: meso %v, group min %d", spec.Meso, spec.MesoGroupMin)
	}
}

// TestFleetSpecProbesNeedGroupParking: -mesoprobes without -mesogroup is
// refused by FleetSpec with an error naming the missing flag, both on a
// plain fleet (where the count used to be dropped silently) and with
// -meso (where serve.Run used to refuse it by its Spec field name).
func TestFleetSpecProbesNeedGroupParking(t *testing.T) {
	for _, o := range []FleetOptions{
		{Size: 16, MesoProbes: 3},
		{Size: 16, Meso: true, MesoProbes: 3},
	} {
		s := Quick
		s.Fleet = o
		if _, err := FleetSpec(s); err == nil || !strings.Contains(err.Error(), "-mesogroup") {
			t.Errorf("%+v: err = %v, want one naming -mesogroup", o, err)
		}
	}
	s := Quick
	s.Fleet = FleetOptions{Size: 16, MesoGroupMin: 8, MesoProbes: 3}
	spec, err := FleetSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if spec.MesoGroupMin != 8 || spec.MesoProbes != 3 {
		t.Fatalf("-mesogroup 8 -mesoprobes 3: group min %d, probes %d", spec.MesoGroupMin, spec.MesoProbes)
	}
}

// TestFleetScenarioFlagEquivalence pins the acceptance contract: the
// built-in "fleet" scenario and the bare flag path must produce the
// same serving spec.
func TestFleetScenarioFlagEquivalence(t *testing.T) {
	flags, err := FleetSpec(Quick)
	if err != nil {
		t.Fatal(err)
	}
	s := ScaleFor(scenario.BuiltIn("fleet"))
	spec, err := FleetSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", flags) != fmt.Sprintf("%+v", spec) {
		t.Fatalf("flag and scenario specs diverge:\nflags: %+v\nspec:  %+v", flags, spec)
	}
}
