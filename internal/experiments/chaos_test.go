package experiments

import (
	"bytes"
	"testing"
	"time"
)

// chaosSpec runs the published chaos defaults at both seeds of the
// paper-default suite: the chaos phases derive every fault draw from
// FaultSeed, every workload draw from Seed.
var chaosSpec = boundedSpec(2*time.Second, 256<<20)

func TestChaosRecoversEndToEnd(t *testing.T) {
	t.Parallel()
	r, err := Chaos(chaosSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: the governor must fail, retry, and land the throttle
	// after the command-fault window lifts.
	if r.GovFailures == 0 || r.GovRetries == 0 {
		t.Errorf("governor failures/retries = %d/%d, want both > 0", r.GovFailures, r.GovRetries)
	}
	if r.GovFinalState != 2 {
		t.Errorf("governor final state ps%d, want ps2", r.GovFinalState)
	}
	// The window end is off the control grid, so recovery comes from a
	// backed-off retry strictly after the window — but within one period.
	if r.GovRecoveryLat <= 0 || r.GovRecoveryLat > 100*time.Millisecond {
		t.Errorf("governor recovery latency %v, want (0, 100ms]", r.GovRecoveryLat)
	}
	if !r.GovCapOK {
		t.Errorf("post-recovery window power %.2f W violates the cap", r.GovWorstWindowW)
	}
	if !r.GovEnergyOK {
		t.Error("energy not conserved across the fault window")
	}

	// Phase 2: replica 0 drops out; load fails over and drains back.
	if r.RedirFailovers == 0 {
		t.Error("no failovers during the dropout window")
	}
	if len(r.RedirDuring) == 0 || len(r.RedirAfter) == 0 {
		t.Fatal("redirector phase recorded no per-replica deltas")
	}
	if r.RedirDuring[0] > 8 {
		t.Errorf("replica 0 completed %d IOs while dropped", r.RedirDuring[0])
	}
	if r.RedirAfter[0] == 0 {
		t.Error("no load drained back onto replica 0 after recovery")
	}

	// Phase 3: the budget controller must compensate around the stuck
	// device and keep the fleet plan under budget.
	if r.BudgetCompensations == 0 {
		t.Error("budget controller never compensated")
	}
	if len(r.BudgetStuck) != 1 || r.BudgetStuck[0] != "SSD2" {
		t.Errorf("stuck devices = %v, want [SSD2]", r.BudgetStuck)
	}
	if r.BudgetAssignment.TotalPowerW > r.BudgetW {
		t.Errorf("assignment %.2f W exceeds the %.0f W budget", r.BudgetAssignment.TotalPowerW, r.BudgetW)
	}

	// Phase 4: the audit must quarantine exactly the uncappable leaf,
	// and the restage must not pick it again.
	if len(r.RolloutQuarantined) != 1 || r.RolloutQuarantined[0] != "rack0/leaf0" {
		t.Errorf("quarantined = %v, want [rack0/leaf0]", r.RolloutQuarantined)
	}
	for _, name := range r.RolloutRestaged {
		if name == r.RolloutQuarantined[0] {
			t.Error("restage picked the quarantined leaf")
		}
	}
}

// TestChaosDeterministic locks the faulted sweep: the same (Seed,
// FaultSeed) pair must render bit-identical output, fault injections
// included.
func TestChaosDeterministic(t *testing.T) {
	t.Parallel()
	e, ok := ByID("chaos")
	if !ok {
		t.Fatal("chaos experiment not registered")
	}
	var a, b bytes.Buffer
	if err := e.Run(chaosSpec, &a, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(chaosSpec, &b, nil); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("chaos produced no output")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("same fault seed produced different output:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.String(), b.String())
	}
}

// TestChaosFaultSeedMatters makes sure FaultSeed actually feeds the
// injection draws: a different seed must change the probabilistic
// fault pattern somewhere in the report.
func TestChaosFaultSeedMatters(t *testing.T) {
	t.Parallel()
	s2 := *chaosSpec
	s2.FaultSeed = 7
	var a, b bytes.Buffer
	e, _ := ByID("chaos")
	if err := e.Run(chaosSpec, &a, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(&s2, &b, nil); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("changing FaultSeed left the chaos output bit-identical")
	}
}
