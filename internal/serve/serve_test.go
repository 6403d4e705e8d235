package serve

import (
	"math"
	"strings"
	"testing"
	"time"

	"wattio/internal/detcheck"
	"wattio/internal/fault"
)

// TestScriptedFaults pins the spec-scripted fault path: the named
// instance is wrapped and counted, scripting it does not perturb any
// other device's draws, and bad scripts are rejected by name.
func TestScriptedFaults(t *testing.T) {
	base := quickSpec()
	base.FaultFrac = 0
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	sp := quickSpec()
	sp.FaultFrac = 0
	sp.Faults = []DeviceFault{{
		Device: InstanceName("SSD2", 0),
		Windows: []fault.Window{
			{Kind: fault.Dropout, Start: 200 * time.Millisecond, Dur: 100 * time.Millisecond},
		},
	}}
	rep, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faulted != 1 {
		t.Fatalf("scripted fault count = %d, want 1", rep.Faulted)
	}
	if rep.Failovers == 0 {
		t.Fatal("scripted dropout inside a replica group caused no failovers")
	}
	// Arrivals draw from the workload seed only, so a fault script must
	// never change the offered load.
	if rep.Offered != clean.Offered {
		t.Fatalf("fault script perturbed arrivals: offered %d, want %d", rep.Offered, clean.Offered)
	}

	sp.Faults[0].Device = "SSD9#00000"
	if _, err := Run(sp); err == nil || !strings.Contains(err.Error(), `"SSD9#00000"`) {
		t.Fatalf("unknown scripted instance not rejected by name: %v", err)
	}
	sp.Faults[0] = DeviceFault{Device: InstanceName("SSD2", 0)}
	if _, err := Run(sp); err == nil || !strings.Contains(err.Error(), "no windows") {
		t.Fatalf("empty fault script not rejected: %v", err)
	}
}

// quickSpec is a small mixed fleet with replication, faults, and a
// stepped budget — every moving part of the engine enabled, sized to
// run in well under a second.
func quickSpec() Spec {
	return Spec{
		Profiles:        []string{"SSD2", "SSD1"},
		Size:            24,
		Replicas:        2,
		Shards:          3,
		Horizon:         600 * time.Millisecond,
		Seed:            42,
		FaultSeed:       7,
		FaultFrac:       0.25,
		CheckInvariants: true,
		Budget: []BudgetStep{
			{At: 0, FleetW: 24 * 15.0},
			{At: 200 * time.Millisecond, FleetW: 24 * 10.5},
			{At: 400 * time.Millisecond, FleetW: 24 * 12.5},
		},
	}
}

// TestDeterministic is the serving half of the repo's determinism
// contract: the merged report must be bit-identical across repeat runs
// and across GOMAXPROCS settings, even with faults injected.
func TestDeterministic(t *testing.T) {
	detcheck.Assert(t, func() (*Report, error) { return Run(quickSpec()) }, detcheck.Config[*Report]{
		Procs: []int{1, 4, 8},
		Diff: func(t testing.TB, a, b *Report) {
			t.Logf("reference: %+v", a)
			t.Logf("divergent: %+v", b)
		},
	})
}

func TestQuickRun(t *testing.T) {
	rep, err := Run(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Devices != 24 || rep.Groups != 12 || rep.Shards != 3 {
		t.Fatalf("fleet shape: %+v", rep)
	}
	if rep.Faulted == 0 {
		t.Fatalf("FaultFrac 0.25 over 24 devices injected no faults")
	}
	if rep.Completed == 0 || rep.BytesCompleted == 0 {
		t.Fatalf("no IO completed: %+v", rep)
	}
	if rep.Offered != rep.Admitted+rep.Rejected {
		t.Fatalf("offered %d != admitted %d + rejected %d", rep.Offered, rep.Admitted, rep.Rejected)
	}
	if rep.Completed > rep.Admitted {
		t.Fatalf("completed %d > admitted %d", rep.Completed, rep.Admitted)
	}
	if rep.LatP50 <= 0 || rep.LatP99 < rep.LatP50 || rep.LatMax < rep.LatP99 {
		t.Fatalf("latency ordering broken: p50=%v p99=%v max=%v", rep.LatP50, rep.LatP99, rep.LatMax)
	}
	if rep.Replans == 0 {
		t.Fatalf("stepped budget produced no re-plans")
	}
	if !rep.CapOK {
		t.Fatalf("cap probe fired: worst window %.1f W", rep.CapWorstW)
	}
	if !rep.TrackOK {
		t.Fatalf("achieved power broke budget: worst over %.1f W", rep.WorstOverW)
	}
	if len(rep.Intervals) != 6 {
		t.Fatalf("expected 6 control intervals, got %d", len(rep.Intervals))
	}
}

// TestBudgetBinds drives the fleet hard enough that the budget actually
// constrains serving: under a tight budget the planner moves devices to
// low-power states, the lanes saturate, and admission control sheds
// load — none of which happens with the budget wide open.
func TestBudgetBinds(t *testing.T) {
	base := Spec{
		Size:     8,
		Shards:   2,
		RateIOPS: 10000, // ~2.6 GB/s demand vs 3.1 GB/s at ps0, 1.6 GB/s at ps2
		Horizon:  800 * time.Millisecond,
		Seed:     42,
	}

	loose := base
	rLoose, err := Run(loose)
	if err != nil {
		t.Fatal(err)
	}

	tight := base
	tight.Budget = []BudgetStep{{At: 0, FleetW: 8 * 10.0}} // per-device 10 W < ps1's 11.7 W
	rTight, err := Run(tight)
	if err != nil {
		t.Fatal(err)
	}

	if rLoose.Rejected != 0 {
		t.Fatalf("unconstrained fleet rejected %d requests", rLoose.Rejected)
	}
	if rTight.Rejected == 0 {
		t.Fatalf("tight budget shed no load: %+v", rTight)
	}
	if rTight.ThroughputMBps >= rLoose.ThroughputMBps {
		t.Fatalf("tight budget did not cut throughput: %.0f vs %.0f MB/s",
			rTight.ThroughputMBps, rLoose.ThroughputMBps)
	}
	if rTight.AvgPowerW >= rLoose.AvgPowerW {
		t.Fatalf("tight budget did not cut power: %.1f vs %.1f W",
			rTight.AvgPowerW, rLoose.AvgPowerW)
	}
	if !rTight.TrackOK {
		t.Fatalf("tight budget not tracked: worst over %.1f W", rTight.WorstOverW)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown profile", Spec{Profiles: []string{"nope"}}, "unknown profile"},
		{"negative size", Spec{Size: -4}, "must be positive"},
		{"indivisible replicas", Spec{Size: 10, Replicas: 3}, "not divisible"},
		{"active too high", Spec{Size: 8, Replicas: 2, Active: 3}, "out of"},
		{"bad chunk", Spec{ChunkBytes: 100}, "chunk size"},
		{"negative rate", Spec{RateIOPS: -1}, "arrival rate"},
		{"period past horizon", Spec{Horizon: time.Second, ControlPeriod: 2 * time.Second}, "control period"},
		{"budget late start", Spec{Budget: []BudgetStep{{At: time.Second, FleetW: 100}}}, "start at 0"},
		{"budget zero watts", Spec{Budget: []BudgetStep{{At: 0, FleetW: 0}}}, "non-positive power"},
		{"budget NaN watts", Spec{Budget: []BudgetStep{{At: 0, FleetW: math.NaN()}}}, "not finite"},
		{"budget infinite watts", Spec{Budget: []BudgetStep{{0, 100}, {time.Second, math.Inf(1)}}}, "not finite"},
		{"budget out of order", Spec{Budget: []BudgetStep{{0, 100}, {0, 90}}}, "strictly increasing"},
		{"budget past horizon", Spec{Horizon: time.Second, Budget: []BudgetStep{{0, 100}, {2 * time.Second, 90}}}, "past the horizon"},
		{"fault frac over 1", Spec{FaultFrac: 1.5}, "fault fraction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.spec)
			if err == nil {
				t.Fatalf("spec accepted: %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestNormalizedDefaults(t *testing.T) {
	sp, err := Spec{}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Size != 64 || sp.Replicas != 1 || sp.Active != 1 {
		t.Fatalf("fleet defaults: %+v", sp)
	}
	if sp.Shards != 4 { // 64 groups / 16 per shard
		t.Fatalf("default shards = %d, want 4", sp.Shards)
	}
	if len(sp.Budget) != 1 || sp.Budget[0].FleetW <= 64*14.4 {
		t.Fatalf("default budget should exceed fleet max power: %+v", sp.Budget)
	}
}

func TestParseSchedule(t *testing.T) {
	got, err := ParseSchedule("0s:640,1s:448.5", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []BudgetStep{{0, 640}, {time.Second, 448.5}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %+v, want %+v", got, want)
	}

	got, err = ParseSchedule("500ms:12.5pd", 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].At != 500*time.Millisecond || got[0].FleetW != 500 {
		t.Fatalf("pd scaling: got %+v", got)
	}

	rejects := []struct {
		name, text, wantErr string
	}{
		{"empty", "", "empty budget schedule"},
		{"blank", "  ", "empty budget schedule"},
		{"no colon", "640", "not duration:watts"},
		{"bad duration", "xs:640", `"xs:640"`},
		{"bad watts", "0s:abc", `bad watts "abc"`},
		{"bad pd watts", "0s:12qq", `bad watts "12qq"`},
		{"duplicate step time", "0s:640,1s:500,1s:480", `"1s:480" repeats step time 1s`},
		{"backward step time", "0s:640,2s:500,1s:480", `"1s:480" goes backward (1s after 2s)`},
		{"duplicate at zero", "0s:640,0s:500", `"0s:500" repeats step time 0s`},
	}
	for _, tc := range rejects {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSchedule(tc.text, 10)
			if err == nil {
				t.Fatalf("ParseSchedule(%q) accepted", tc.text)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseSchedule(%q) error %q does not name the bad segment (want %q)", tc.text, err, tc.wantErr)
			}
		})
	}
}

// TestScheduleKey pins the canonical re-encoding the scenario grid
// layer uses for duplicate detection: spelling variants of one schedule
// collapse to the same key, distinct schedules never do, and the key is
// independent of fleet size (the "pd" suffix is preserved, not scaled).
func TestScheduleKey(t *testing.T) {
	same := [][2]string{
		{"0s:14.6pd", " 0s:14.60pd"},
		{"0s:640,1s:448.5", "0ms:640.0, 1000ms:448.50"},
		{"500ms:12.5pd", "0.5s:12.5pd"},
	}
	for _, pair := range same {
		a, err := ScheduleKey(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := ScheduleKey(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("ScheduleKey(%q)=%q != ScheduleKey(%q)=%q", pair[0], a, pair[1], b)
		}
	}
	distinct := []string{"0s:14.6pd", "0s:14.6", "0s:14.7pd", "0s:14.6pd,1s:11pd"}
	seen := map[string]string{}
	for _, s := range distinct {
		k, err := ScheduleKey(s)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("distinct schedules %q and %q share key %q", prev, s, k)
		}
		seen[k] = s
	}
	if _, err := ScheduleKey("0s:junk"); err == nil {
		t.Error("malformed schedule produced a key")
	}
	// The key itself re-parses and re-keys to a fixed point.
	k, err := ScheduleKey("0ms:640.0, 1000ms:448.50")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ScheduleKey(k)
	if err != nil {
		t.Fatalf("key %q does not re-parse: %v", k, err)
	}
	if k != k2 {
		t.Errorf("key not a fixed point: %q -> %q", k, k2)
	}
}

// TestParseInstanceName pins the InstanceName inverse: every generated
// name round-trips, and anything InstanceName could not have produced
// is rejected.
func TestParseInstanceName(t *testing.T) {
	for _, tc := range []struct {
		profile string
		i       int
	}{{"SSD2", 0}, {"SSD2", 3}, {"HDD", 99999}, {"EVO", 123456}} {
		name := InstanceName(tc.profile, tc.i)
		p, i, err := parseInstanceName(name)
		if err != nil || p != tc.profile || i != tc.i {
			t.Errorf("parseInstanceName(%q) = (%q, %d, %v), want (%q, %d)", name, p, i, err, tc.profile, tc.i)
		}
	}
	for _, bad := range []string{
		"", "SSD2", "SSD2#", "#00003", "SSD2#3", "SSD2#003", "SSD2#-0003",
		"SSD2#00003x", "SSD2#0x003", "SSD2##00003", "ssd2 #00003 ",
	} {
		if _, _, err := parseInstanceName(bad); err == nil {
			t.Errorf("parseInstanceName(%q) accepted", bad)
		}
	}
}

// TestReplicaFailover checks that dropout faults inside replica groups
// route IO to the surviving replicas instead of stalling the lane.
func TestReplicaFailover(t *testing.T) {
	sp := quickSpec()
	sp.FaultFrac = 0.5
	rep, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faulted == 0 {
		t.Fatal("no faults injected at FaultFrac 0.5")
	}
	if rep.Failovers == 0 {
		t.Fatalf("faulted replicated fleet recorded no failovers: %+v", rep)
	}
	if rep.Completed == 0 {
		t.Fatalf("no IO completed under faults")
	}
}

// TestStuckDeviceCompensation: a device that refuses its power-state
// command across a binding budget step is counted as a compensation,
// and the fleet still holds its cap and tracks the budget.
func TestStuckDeviceCompensation(t *testing.T) {
	t.Parallel()
	sp := tierSpec(tierCell{"pure", "budget"})
	sp.Faults = []DeviceFault{{
		Device: InstanceName("SSD2", 0),
		Windows: []fault.Window{
			{Kind: fault.PowerCmdFail, Start: 600 * time.Millisecond, Dur: 400 * time.Millisecond},
		},
	}}
	r, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Compensations == 0 {
		t.Fatalf("no compensation for a device refusing across the 700 ms step: %+v", r)
	}
	if !r.CapOK || !r.TrackOK {
		t.Fatalf("probes red: cap=%v track=%v (worst over %.3f W)", r.CapOK, r.TrackOK, r.WorstOverW)
	}
}
