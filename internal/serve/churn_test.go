package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"wattio/internal/detcheck"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

// churnSpec: a plain (no meso) mirrored fleet that scales out two
// replica groups mid-run and drains them back before the horizon.
func churnSpec() Spec {
	return Spec{
		Size:     8,
		Replicas: 2,
		Shards:   2,
		Horizon:  2 * time.Second,
		RateIOPS: 3000,
		Seed:     7,
		Churn: []ChurnEvent{
			{At: 500 * time.Millisecond, Profile: "SSD2", Add: 2, Warmup: 100 * time.Millisecond},
			{At: 1400 * time.Millisecond, Profile: "SSD2", Remove: 2},
		},
	}
}

func TestChurnSpecValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown cohort", func(sp *Spec) { sp.Churn[0].Profile = "HDD" }, "unknown cohort"},
		{"non-increasing", func(sp *Spec) { sp.Churn[1].At = sp.Churn[0].At }, "strictly increasing"},
		{"at zero", func(sp *Spec) { sp.Churn[0].At = 0 }, "outside (0, horizon)"},
		{"at horizon", func(sp *Spec) { sp.Churn[1].At = 2 * time.Second }, "outside (0, horizon)"},
		{"empty event", func(sp *Spec) { sp.Churn[0].Add = 0 }, "at least one group"},
		{"negative warmup", func(sp *Spec) { sp.Churn[0].Warmup = -time.Millisecond }, "negative warm-up"},
		{"warmup past horizon", func(sp *Spec) { sp.Churn[0].Warmup = 2 * time.Second }, "past the horizon"},
		{"cohort emptied", func(sp *Spec) { sp.Churn[1].Remove = 6 }, "at least one must remain"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sp := churnSpec()
			tc.mut(&sp)
			_, err := Run(sp)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestRateSpecValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name  string
		rates []workload.RateStep
		want  string
	}{
		{"late start", []workload.RateStep{{At: time.Millisecond, IOPS: 100}}, "must start at 0"},
		{"zero rate", []workload.RateStep{{At: 0, IOPS: 0}}, "non-positive rate"},
		{"non-increasing", []workload.RateStep{{At: 0, IOPS: 1}, {At: 0, IOPS: 2}}, "strictly increasing"},
		{"past horizon", []workload.RateStep{{At: 0, IOPS: 1}, {At: 3 * time.Second, IOPS: 2}}, "past the horizon"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sp := churnSpec()
			sp.Churn = nil
			sp.Rates = tc.rates
			_, err := Run(sp)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestSingleStepRatesIdentity: a one-step rate schedule is the
// constant-rate run, field for field — the schedule machinery must not
// perturb a single RNG draw of the churn-off path.
func TestSingleStepRatesIdentity(t *testing.T) {
	t.Parallel()
	base := quickSpec()
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sched := quickSpec()
	sched.Rates = []workload.RateStep{{At: 0, IOPS: 3000}} // serve's default rate
	stepped, err := Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, stepped) {
		t.Fatalf("single-step schedule diverges from constant rate:\nplain:   %+v\nstepped: %+v", plain, stepped)
	}
}

// TestChurnLifecycle: the plain-lane path — churned groups materialize,
// warm, serve, drain, and retire, with the recovery latencies and every
// ledger consistent.
func TestChurnLifecycle(t *testing.T) {
	t.Parallel()
	r, err := Run(churnSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r.ChurnAdds != 2 || r.ChurnRemoves != 2 {
		t.Fatalf("churn counts: adds %d removes %d, want 2/2", r.ChurnAdds, r.ChurnRemoves)
	}
	// Warm-up recovery runs from the churn event to the lane's first
	// completion; arrivals only start after the 100ms warm-up.
	if r.WarmupP50 < 100*time.Millisecond || r.WarmupMax >= r.SimulatedDur {
		t.Fatalf("warm-up recovery %v..%v out of range", r.WarmupP50, r.WarmupMax)
	}
	if r.DrainMax >= r.SimulatedDur {
		t.Fatalf("drain recovery %v never completed", r.DrainMax)
	}
	if r.Offered != r.Admitted+r.Rejected {
		t.Fatalf("admission ledger: offered %d != admitted %d + rejected %d", r.Offered, r.Admitted, r.Rejected)
	}
	if r.Completed == 0 || r.Completed > r.Admitted {
		t.Fatalf("completion ledger: completed %d of admitted %d", r.Completed, r.Admitted)
	}
	if !r.CapOK || !r.TrackOK {
		t.Fatalf("probes failed: cap=%v track=%v", r.CapOK, r.TrackOK)
	}
}

// TestChurnOffReportClean: without churn events the lifecycle fields
// stay zero — the report shape of every existing run is untouched.
func TestChurnOffReportClean(t *testing.T) {
	t.Parallel()
	sp := churnSpec()
	sp.Churn = nil
	r, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.ChurnAdds != 0 || r.ChurnRemoves != 0 || r.WarmupMax != 0 || r.DrainMax != 0 {
		t.Fatalf("churn accounting on a churn-off run: %+v", r)
	}
}

// TestChurnMoreShardsThanNewGroups: churned groups land on shards
// round-robin, so a one-group add with many shards must still work.
func TestChurnMoreShardsThanNewGroups(t *testing.T) {
	t.Parallel()
	sp := churnSpec()
	sp.Shards = 4
	sp.Churn = []ChurnEvent{
		{At: 500 * time.Millisecond, Profile: "SSD2", Add: 1, Warmup: 50 * time.Millisecond},
		{At: 1400 * time.Millisecond, Profile: "SSD2", Remove: 1},
	}
	r, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.ChurnAdds != 1 || r.ChurnRemoves != 1 {
		t.Fatalf("churn counts: adds %d removes %d, want 1/1", r.ChurnAdds, r.ChurnRemoves)
	}
}

// TestShardPanicReturnsError: a panic on a shard's goroutine comes back
// from runShard as an error naming the shard and the virtual time. The
// hand-built epoch removes a group that lives on the other shard, which
// beginRemove refuses with a panic.
func TestShardPanicReturnsError(t *testing.T) {
	t.Parallel()
	sp, err := churnSpec().normalized()
	if err != nil {
		t.Fatal(err)
	}
	rg := shardRange{g0: 0, g1: 2} // shard 0 of the 4 groups; group 3 is shard 1's
	ch := &shardChurn{epochs: []churnEpoch{{
		at:        500 * time.Millisecond,
		warmAt:    500 * time.Millisecond,
		live:      2 * sp.Replicas,
		fleetLive: sp.Size - sp.Replicas,
		removes:   []churnRemove{{g: 3}},
	}}}
	res, err := runShard(&sp, 0, rg, ch)
	if err == nil {
		t.Fatalf("removing another shard's group succeeded: %+v", res)
	}
	for _, want := range []string{"shard 0", "virtual time 500ms", "unmaterialized group 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestBuildGroupRefusesOutOfOrder: laneOf's binary search needs the
// shard's lanes ascending in group number, so buildGroup refuses a
// group numbered at or below the last lane's and names it.
func TestBuildGroupRefusesOutOfOrder(t *testing.T) {
	t.Parallel()
	sp, err := Spec{Size: 4, Shards: 1}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	s := &shard{spec: &sp, eng: sim.NewEngine()}
	rng := sim.NewRNG(1)
	if _, err := s.buildGroup(2, 0, rng, nil); err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{1, 2} {
		if _, err := s.buildGroup(g, 0, rng, nil); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("group %d ", g)) {
			t.Errorf("buildGroup(%d) after group 2: error %v, want one naming group %d", g, err, g)
		}
	}
	if len(s.lanes) != 1 || s.laneOf(2) != s.lanes[0] || s.laneOf(1) != nil {
		t.Fatalf("refused builds changed the lanes: %d lanes", len(s.lanes))
	}
}

// TestChurnFindsEveryGroup: on a churned, mirrored and faulted shard
// every group a churn epoch removes or warms is found among its lanes.
// Removals reach build-time groups (faulted ones among them) after the
// churned ones; a removal that misses panics, and a warm that misses
// starts no arrivals, so each count below would fall short.
func TestChurnFindsEveryGroup(t *testing.T) {
	t.Parallel()
	sp, err := Spec{
		Size:      16,
		Replicas:  2,
		Shards:    1,
		Horizon:   2 * time.Second,
		RateIOPS:  3000,
		Seed:      7,
		FaultSeed: 3,
		FaultFrac: 0.5,
		Churn: []ChurnEvent{
			{At: 400 * time.Millisecond, Profile: "SSD2", Add: 3, Warmup: 100 * time.Millisecond},
			{At: 900 * time.Millisecond, Profile: "SSD2", Remove: 5},
			{At: 1200 * time.Millisecond, Profile: "SSD2", Add: 2},
			{At: 1600 * time.Millisecond, Profile: "SSD2", Remove: 1},
		},
	}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	rg := shardRange{g0: 0, g1: sp.Size / sp.Replicas}
	res, err := runShard(&sp, 0, rg, compileChurn(&sp, []shardRange{rg})[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Faulted == 0 {
		t.Fatal("no device faulted")
	}
	if res.ChurnAdds != 5 || res.ChurnRemoves != 6 {
		t.Fatalf("churn counts: adds %d removes %d, want 5/6", res.ChurnAdds, res.ChurnRemoves)
	}
	if len(res.WarmupLats) != 5 || len(res.DrainLats) != 6 {
		t.Fatalf("%d warm-ups and %d drains recorded, want 5 and 6", len(res.WarmupLats), len(res.DrainLats))
	}
}

// churnGroupSpec: a group-parked fleet under a diurnal schedule with a
// scale-out-then-drain-back cycle — the builtin churn scenario's shape
// at unit-test scale.
func churnGroupSpec() Spec {
	return Spec{
		Size:         32,
		Shards:       2,
		Horizon:      2 * time.Second,
		Seed:         7,
		Meso:         true,
		MesoGroupMin: 4,
		Rates: []workload.RateStep{
			{At: 0, IOPS: 3000},
			{At: 800 * time.Millisecond, IOPS: 1200},
			{At: 1600 * time.Millisecond, IOPS: 3000},
		},
		Churn: []ChurnEvent{
			{At: 500 * time.Millisecond, Profile: "SSD2", Add: 8, Warmup: 100 * time.Millisecond},
			{At: 1300 * time.Millisecond, Profile: "SSD2", Remove: 8},
		},
	}
}

// TestChurnGroupParked: churn through the virtualized-cohort tier —
// members join and leave as bucket count changes, warm-up is modeled,
// and every probe stays green.
func TestChurnGroupParked(t *testing.T) {
	t.Parallel()
	r, err := Run(churnGroupSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r.ChurnAdds != 8 || r.ChurnRemoves != 8 {
		t.Fatalf("churn counts: adds %d removes %d, want 8/8", r.ChurnAdds, r.ChurnRemoves)
	}
	if r.MesoGroupLanes == 0 {
		t.Fatal("nothing virtualized")
	}
	// Virtual members report their modeled warm-up exactly.
	if r.WarmupP50 != 100*time.Millisecond {
		t.Fatalf("virtual warm-up p50 = %v, want the modeled 100ms", r.WarmupP50)
	}
	if r.DrainMax >= r.SimulatedDur {
		t.Fatalf("drain recovery %v never completed", r.DrainMax)
	}
	if !r.CapOK || !r.TrackOK || !r.MesoDriftOK {
		t.Fatalf("probes failed: cap=%v track=%v drift=%v (worst %.4f)",
			r.CapOK, r.TrackOK, r.MesoDriftOK, r.MesoWorstDriftFrac)
	}
}

// TestChurnDeterministic: bit-identical reports across GOMAXPROCS on
// the churning group-parked fleet — membership epochs, bucket count
// changes, and diurnal rate steps all ride the per-shard engines.
// Not parallel: detcheck pins GOMAXPROCS.
func TestChurnDeterministic(t *testing.T) {
	detcheck.Assert(t, func() (*Report, error) { return Run(churnGroupSpec()) }, detcheck.Config[*Report]{
		Procs: []int{1, 4, 8},
		Diff: func(t testing.TB, a, b *Report) {
			t.Logf("reference: %+v", a)
			t.Logf("divergent: %+v", b)
		},
	})
}

// TestChurnJoinOrderIndependence: churned lanes draw from fresh RNG
// roots keyed by group number, so adding groups in one event or across
// two events at the same times... cannot be asserted directly (events
// are distinct), but repeat runs of the same spec must agree exactly —
// the determinism half of the join-order contract.
func TestChurnRepeatable(t *testing.T) {
	t.Parallel()
	a, err := Run(churnSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(churnSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeat churn runs diverge:\n%+v\n%+v", a, b)
	}
}

// TestChurnDoesNotPerturbBaseFleet: the base lanes' arrival streams are
// keyed by lane identity, so scheduling churn must not change the
// offered load of the original fleet... the offered totals differ (the
// churned lanes add their own arrivals), but the churn-off run of the
// same spec must be byte-identical to never having had the fields.
func TestChurnDoesNotPerturbBaseFleet(t *testing.T) {
	t.Parallel()
	off := churnSpec()
	off.Churn = nil
	a, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	plain := Spec{
		Size:     8,
		Replicas: 2,
		Shards:   2,
		Horizon:  2 * time.Second,
		RateIOPS: 3000,
		Seed:     7,
	}
	b, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("churn-off run diverges from the plain spec:\n%+v\n%+v", a, b)
	}
}

// TestChurnMesoWarmingLane: a lane churned into a plain-meso fleet (no
// group parking) stays barred from parking until its warm-up ends. It
// has no arrival stream before then, so parking it early would leave
// nothing to stop. The warm-up recovery it reports matches the
// meso-off run's, because meso only parks steady, warmed lanes.
func TestChurnMesoWarmingLane(t *testing.T) {
	t.Parallel()
	sp := Spec{
		Profiles: []string{"SSD2"},
		Size:     8,
		Shards:   1,
		Horizon:  3 * time.Second,
		Seed:     42,
		Meso:     true,
		Churn: []ChurnEvent{
			{At: 500 * time.Millisecond, Profile: "SSD2", Add: 2, Warmup: 800 * time.Millisecond},
			{At: 2 * time.Second, Profile: "SSD2", Remove: 2},
		},
	}
	meso, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !meso.MesoDriftOK || !meso.CapOK {
		t.Fatalf("meso probes failed: drift=%v cap=%v", meso.MesoDriftOK, meso.CapOK)
	}
	sp.Meso = false
	off, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if meso.WarmupP50 != off.WarmupP50 || meso.WarmupMax != off.WarmupMax {
		t.Fatalf("warm-up p50/max %v/%v with meso, %v/%v without",
			meso.WarmupP50, meso.WarmupMax, off.WarmupP50, off.WarmupMax)
	}
}

// TestChurnEmptiesShard: a removal that retires a shard's only lane
// leaves that shard with nothing to plan. Every later re-plan must skip
// it rather than build a controller over an empty fleet, in every tier.
func TestChurnEmptiesShard(t *testing.T) {
	t.Parallel()
	for _, tier := range []struct {
		name     string
		meso     bool
		groupMin int
	}{{"pure", false, 0}, {"meso", true, 0}, {"group", true, 4}} {
		sp := Spec{
			Size:         3,
			Shards:       3,
			Horizon:      time.Second,
			Seed:         7,
			Meso:         tier.meso,
			MesoGroupMin: tier.groupMin,
			// Scale-in pops the newest group, 2: shard 2's only lane.
			Churn: []ChurnEvent{{At: 600 * time.Millisecond, Profile: "SSD2", Remove: 1}},
		}
		r, err := Run(sp)
		if err != nil {
			t.Fatalf("%s: %v", tier.name, err)
		}
		if r.ChurnRemoves != 1 || !r.CapOK || !r.TrackOK || !r.MesoDriftOK {
			t.Fatalf("%s: removes=%d cap=%v track=%v drift=%v", tier.name, r.ChurnRemoves, r.CapOK, r.TrackOK, r.MesoDriftOK)
		}
	}
}
