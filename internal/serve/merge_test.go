package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"wattio/internal/fault"
	"wattio/internal/stats"
)

// mergeSpec builds a normalized one-shard spec with a 1 s horizon and
// 100 ms control period, so merge produces ten intervals.
func mergeSpec(t testing.TB, budget []BudgetStep) Spec {
	t.Helper()
	sp, err := Spec{
		Size:    4,
		Shards:  1,
		Horizon: time.Second,
		Budget:  budget,
	}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// flatResult is a synthetic shard result drawing a constant watts for
// every control interval.
func flatResult(sp *Spec, watts float64) *shardResult {
	n := int((sp.Horizon + sp.ControlPeriod - 1) / sp.ControlPeriod)
	r := &shardResult{Report: Report{CapOK: true, MesoDriftOK: true}}
	r.IntervalEnergyJ = make([]float64, n)
	for i := range r.IntervalEnergyJ {
		r.IntervalEnergyJ[i] = watts * sp.ControlPeriod.Seconds()
	}
	return r
}

func checkedFlags(ivs []Interval) []bool {
	out := make([]bool, len(ivs))
	for i, iv := range ivs {
		out[i] = iv.Checked
	}
	return out
}

// TestGraceExactlyOneIntervalPerStep pins the budget-step grace
// semantics: every step exempts exactly one control interval from
// tracking — the interval whose start falls in the step's one-period
// settle window — regardless of how the step aligns with interval
// boundaries. Before the fix the overlap rule graced both intervals
// touching the window, so the mid-interval case below left interval 2
// unchecked as well.
func TestGraceExactlyOneIntervalPerStep(t *testing.T) {
	cases := []struct {
		name    string
		stepAt  time.Duration
		graced  []int // interval indices expected unchecked (beyond interval 0)
		checked []int // indices that must be checked
	}{
		// A step exactly on an interval boundary graces that interval
		// and nothing else.
		{"boundary-aligned", 300 * time.Millisecond, []int{3}, []int{1, 2, 4, 5}},
		// A mid-interval step graces only the next interval; its own
		// interval is checked against the time-weighted budget.
		{"mid-interval", 250 * time.Millisecond, []int{3}, []int{1, 2, 4, 5}},
		// A step whose settle window reaches exactly the final interval
		// start graces that final interval, nothing more.
		{"window-reaches-final-start", 850 * time.Millisecond, []int{9}, []int{7, 8}},
		// A step inside the final interval has no following interval to
		// grace; the interval containing it takes the grace (the old
		// "not at all" corner of a pure window rule).
		{"final-interval", 950 * time.Millisecond, []int{9}, []int{8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := mergeSpec(t, []BudgetStep{
				{At: 0, FleetW: 100},
				{At: tc.stepAt, FleetW: 60},
			})
			rep := merge(&sp, []*shardResult{flatResult(&sp, 50)})
			if len(rep.Intervals) != 10 {
				t.Fatalf("intervals = %d, want 10", len(rep.Intervals))
			}
			// The t=0 step always graces interval 0.
			if rep.Intervals[0].Checked {
				t.Errorf("interval 0 not graced for the initial plan application")
			}
			for _, k := range tc.graced {
				if rep.Intervals[k].Checked {
					t.Errorf("interval %d checked, want graced (flags %v)", k, checkedFlags(rep.Intervals))
				}
			}
			for _, k := range tc.checked {
				if !rep.Intervals[k].Checked {
					t.Errorf("interval %d graced, want checked (flags %v)", k, checkedFlags(rep.Intervals))
				}
			}
			total := 0
			for _, iv := range rep.Intervals {
				if !iv.Checked {
					total++
				}
			}
			if total != 2 { // t=0 step + the case's step: one interval each
				t.Errorf("graced %d intervals in total, want 2 (flags %v)", total, checkedFlags(rep.Intervals))
			}
		})
	}
}

// TestMidIntervalStepBudgetWeighted pins the companion half of the
// grace fix: the interval a step lands inside is checked against the
// time-weighted scheduled budget, and intervals without an interior
// step keep the exact step value (no float drift from a degenerate
// weighting).
func TestMidIntervalStepBudgetWeighted(t *testing.T) {
	sp := mergeSpec(t, []BudgetStep{
		{At: 0, FleetW: 100},
		{At: 250 * time.Millisecond, FleetW: 60},
	})
	rep := merge(&sp, []*shardResult{flatResult(&sp, 50)})
	want := 0.5*100 + 0.5*60 // step splits [200ms, 300ms) in half
	if got := rep.Intervals[2].BudgetW; math.Abs(got-want) > 1e-9 {
		t.Errorf("split interval BudgetW = %v, want %v", got, want)
	}
	if got := rep.Intervals[1].BudgetW; got != 100 {
		t.Errorf("pre-step interval BudgetW = %v, want exactly 100", got)
	}
	if got := rep.Intervals[5].BudgetW; got != 60 {
		t.Errorf("post-step interval BudgetW = %v, want exactly 60", got)
	}

	// The weighted check binds: constant draw above the weighted budget
	// (plus tolerance) in the split interval must fail tracking even
	// though it is under the pre-step budget.
	hot := flatResult(&sp, 50)
	hot.IntervalEnergyJ[2] = 95 * sp.ControlPeriod.Seconds() // 95 W > 80*1.1, < 100
	rep = merge(&sp, []*shardResult{hot})
	if rep.TrackOK {
		t.Errorf("draw above the weighted budget in a split interval passed tracking")
	}
}

// TestThroughputUsesSimulatedTime pins the ThroughputMBps fix: the rate
// divides by the virtual time the run actually covered (horizon plus
// post-horizon drain), not the nominal horizon. Before the fix a run
// whose drain ran past the horizon reported bytes/horizon, overstating
// the rate.
func TestThroughputUsesSimulatedTime(t *testing.T) {
	sp := mergeSpec(t, nil)
	res := flatResult(&sp, 50)
	res.BytesCompleted = 3_000_000
	res.SimulatedDur = 2 * time.Second // drain ran one full horizon past the end
	rep := merge(&sp, []*shardResult{res})
	if rep.SimulatedDur != 2*time.Second {
		t.Fatalf("SimulatedDur = %v, want 2s", rep.SimulatedDur)
	}
	if want := 1.5; math.Abs(rep.ThroughputMBps-want) > 1e-9 {
		t.Fatalf("ThroughputMBps = %v, want %v (bytes over simulated time)", rep.ThroughputMBps, want)
	}

	// Without drain past the horizon, SimulatedDur is the horizon and
	// the rate is unchanged from the old definition.
	res = flatResult(&sp, 50)
	res.BytesCompleted = 3_000_000
	res.SimulatedDur = sp.Horizon
	rep = merge(&sp, []*shardResult{res})
	if rep.SimulatedDur != sp.Horizon || math.Abs(rep.ThroughputMBps-3.0) > 1e-9 {
		t.Fatalf("horizon-bounded run: dur %v, %v MB/s, want 1s, 3", rep.SimulatedDur, rep.ThroughputMBps)
	}
}

// TestDropoutDrainPastHorizon drives the throughput fix end to end: an
// unreplicated lane with a dropout window that outlives the horizon
// holds its in-flight IO until the window ends, so the drain pushes the
// engine clock past the horizon and the report's throughput must be
// measured over that longer window.
func TestDropoutDrainPastHorizon(t *testing.T) {
	sp := Spec{
		Size:     2,
		Replicas: 1,
		Shards:   1,
		Horizon:  400 * time.Millisecond,
		RateIOPS: 2000,
		Seed:     42,
		Faults: []DeviceFault{{
			Device: InstanceName("SSD2", 0),
			Windows: []fault.Window{
				{Kind: fault.Dropout, Start: 200 * time.Millisecond, Dur: 400 * time.Millisecond},
			},
		}},
	}
	rep, err := Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("no IO completed")
	}
	// The dropout window ends at 600 ms, 200 ms past the horizon; the
	// held IO completes after that.
	if rep.SimulatedDur <= 600*time.Millisecond {
		t.Fatalf("SimulatedDur = %v, want > 600ms (dropout releases held IO past the horizon)", rep.SimulatedDur)
	}
	want := float64(rep.BytesCompleted) / 1e6 / rep.SimulatedDur.Seconds()
	if math.Abs(rep.ThroughputMBps-want) > 1e-9 {
		t.Fatalf("ThroughputMBps = %v, want %v = bytes / simulated time (not the %v horizon)",
			rep.ThroughputMBps, want, sp.Horizon)
	}
}

// TestBudgetAtEdgeCases pins budgetAt's semantics at the boundaries: a
// step binds exactly at its own time, single-step schedules are
// constant, and times before the first step take the first step's
// value (the only schedules Run accepts start at 0, but ParseSchedule
// also accepts later-starting schedules for tooling, and both layers
// must agree on what they mean).
func TestBudgetAtEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		sched []BudgetStep
		t     time.Duration
		want  float64
	}{
		{"single step at 0", []BudgetStep{{0, 100}}, 0, 100},
		{"single step, later query", []BudgetStep{{0, 100}}, time.Hour, 100},
		{"exactly at a step time", []BudgetStep{{0, 100}, {100 * time.Millisecond, 60}}, 100 * time.Millisecond, 60},
		{"one ns before a step", []BudgetStep{{0, 100}, {100 * time.Millisecond, 60}}, 100*time.Millisecond - 1, 100},
		{"one ns after a step", []BudgetStep{{0, 100}, {100 * time.Millisecond, 60}}, 100*time.Millisecond + 1, 60},
		{"first step after 0, earlier query", []BudgetStep{{500 * time.Millisecond, 80}}, 0, 80},
		{"first step after 0, at step", []BudgetStep{{500 * time.Millisecond, 80}, {time.Second, 40}}, 500 * time.Millisecond, 80},
		{"last step binds to the end", []BudgetStep{{0, 100}, {1 * time.Second, 60}, {2 * time.Second, 40}}, 3 * time.Second, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := budgetAt(tc.sched, tc.t); got != tc.want {
				t.Fatalf("budgetAt(%v) = %v, want %v", tc.t, got, tc.want)
			}
		})
	}
}

// TestParseScheduleEdgeCases covers the structural corners the grid and
// CLI layers rely on: a query exactly at a parsed step time yields that
// step's value, schedules whose first step is after t=0 parse and
// extend the first value backward, and single-step schedules are
// constant — asserting ParseSchedule and budgetAt agree on the chosen
// semantics.
func TestParseScheduleEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		text    string
		size    int
		queries map[time.Duration]float64
	}{
		{"single step", "0s:640", 0, map[time.Duration]float64{
			0: 640, time.Second: 640,
		}},
		{"single pd step", "0s:10pd", 8, map[time.Duration]float64{
			0: 80, time.Minute: 80,
		}},
		{"exactly at each step", "0s:640,1s:448", 0, map[time.Duration]float64{
			0: 640, time.Second: 448, time.Second - 1: 640, time.Second + 1: 448,
		}},
		{"first step after zero", "500ms:80", 0, map[time.Duration]float64{
			0: 80, 250 * time.Millisecond: 80, 500 * time.Millisecond: 80, time.Second: 80,
		}},
		{"first step after zero, two steps", "500ms:80,1s:40", 0, map[time.Duration]float64{
			0: 80, 500 * time.Millisecond: 80, 999 * time.Millisecond: 80, time.Second: 40,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := ParseSchedule(tc.text, tc.size)
			if err != nil {
				t.Fatal(err)
			}
			for at, want := range tc.queries {
				if got := budgetAt(sched, at); got != want {
					t.Errorf("budgetAt(parse(%q), %v) = %v, want %v", tc.text, at, got, want)
				}
			}
		})
	}
}

// TestAvgBudgetW pins the weighted-budget helper directly.
func TestAvgBudgetW(t *testing.T) {
	sched := []BudgetStep{{0, 100}, {250 * time.Millisecond, 60}, {275 * time.Millisecond, 20}}
	cases := []struct {
		name       string
		start, end time.Duration
		want       float64
	}{
		{"no interior step", 0, 100 * time.Millisecond, 100},
		{"start exactly at step", 250 * time.Millisecond, 275 * time.Millisecond, 60},
		{"one interior step", 200 * time.Millisecond, 300 * time.Millisecond, 0.5*100 + 0.25*60 + 0.25*20},
		{"two interior steps", 240 * time.Millisecond, 280 * time.Millisecond, 0.25*100 + 0.625*60 + 0.125*20},
		{"after the last step", time.Second, 2 * time.Second, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := avgBudgetW(sched, tc.start, tc.end); math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("avgBudgetW(%v, %v) = %v, want %v", tc.start, tc.end, got, tc.want)
			}
		})
	}
}

// mergeLatencies merges one synthetic shard per sample list, each
// logging its samples in order, and returns the report's p50, p99 and
// max.
func mergeLatencies(sp *Spec, shards [][]time.Duration) [3]time.Duration {
	var results []*shardResult
	for _, lats := range shards {
		res := flatResult(sp, 50)
		for _, d := range lats {
			res.Latencies.add(d)
		}
		results = append(results, res)
	}
	rep := merge(sp, results)
	return [3]time.Duration{rep.LatP50, rep.LatP99, rep.LatMax}
}

// sortedQuantiles is what mergeLatencies must return: p50, p99 and max
// of all shards' samples, merged and sorted, by stats.QuantileSorted;
// zeros when there are none.
func sortedQuantiles(shards [][]time.Duration) [3]time.Duration {
	var all []float64
	for _, lats := range shards {
		for _, d := range lats {
			all = append(all, float64(d))
		}
	}
	if len(all) == 0 {
		return [3]time.Duration{}
	}
	sort.Float64s(all)
	return [3]time.Duration{
		time.Duration(stats.QuantileSorted(all, 0.50)),
		time.Duration(stats.QuantileSorted(all, 0.99)),
		time.Duration(all[len(all)-1]),
	}
}

// TestMergeLatencyQuantiles pins the merge's rank selection over the
// shards' unsorted latency logs to a full sort: p50, p99 and max of the
// concatenation, bit for bit. The fixed cases cover one, two and three
// samples, samples all tied, and shards whose logs cross chunk
// boundaries; the random trials add empty and single-sample shards and
// ties across shards. The named cases cover every sample equal (the
// meso tier's service time), latencies of 2^32 ns or more among small
// ones, a single sample of either kind, and one non-empty shard among
// empty ones.
func TestMergeLatencyQuantiles(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	sp := mergeSpec(t, nil)
	check := func(name string, sizes []int, draw func() time.Duration) {
		t.Helper()
		shards := make([][]time.Duration, len(sizes))
		for i, n := range sizes {
			for ; n > 0; n-- {
				shards[i] = append(shards[i], draw())
			}
		}
		if got, want := mergeLatencies(&sp, shards), sortedQuantiles(shards); got != want {
			t.Fatalf("%s: merged p50/p99/max %v, sorted %v", name, got, want)
		}
	}
	upTo := func(maxLat int) func() time.Duration {
		return func() time.Duration { return time.Duration(r.Intn(maxLat)) * time.Microsecond }
	}
	fixed := [][]int{
		{1}, {0, 1, 0}, {2}, {1, 1}, {0, 2}, {3}, {1, 1, 1},
		{latChunkMin - 1, latChunkMin, latChunkMin + 1},
		{2*latChunkMax + 3, 1, latChunkMin},
	}
	for _, sizes := range fixed {
		for _, maxLat := range []int{1, 3, 5000} {
			check(fmt.Sprintf("shards %v, latencies < %dµs", sizes, maxLat), sizes, upTo(maxLat))
		}
	}
	for trial := 0; trial < 50; trial++ {
		var sizes []int
		for k := 1 + r.Intn(17); k > 0; k-- {
			sizes = append(sizes, r.Intn(4)*r.Intn(300))
		}
		check(fmt.Sprintf("trial %d", trial), sizes, upTo(5000))
	}

	const service = 120369 * time.Nanosecond
	equal := func() time.Duration { return service }
	mixed := func() time.Duration {
		switch r.Intn(4) {
		case 0:
			return 1<<32 + time.Duration(r.Intn(3))<<r.Intn(40)
		case 1:
			return 1<<32 - 1
		}
		return time.Duration(r.Intn(5000)) * time.Microsecond
	}
	for _, tc := range []struct {
		name  string
		sizes []int
		draw  func() time.Duration
	}{
		{"every sample equal", []int{3*latChunkMax + 5, latChunkMin, 0, 1}, equal},
		{"samples of 2^32 ns or more", []int{40, 0, 300, 7}, mixed},
		{"all but the top samples of 2^32 ns or more", []int{200, 200}, func() time.Duration {
			if r.Intn(100) == 0 {
				return time.Microsecond
			}
			return 1<<32 + time.Duration(r.Intn(1e6))
		}},
		{"a single sample", []int{0, 1}, equal},
		{"a single sample of 2^40 ns", []int{1}, func() time.Duration { return 1 << 40 }},
		{"all shards empty but one", []int{0, 0, 2*latChunkMax + 9, 0}, upTo(5000)},
	} {
		check(tc.name, tc.sizes, tc.draw)
	}
}

// FuzzLatencySelect checks merge's radix select against a sort of the
// merged sample, bit for bit, over random shard counts and sizes and
// values drawn from a few tied ones, a seed-chosen log-scale spread and
// latencies of 2^32 ns or more.
func FuzzLatencySelect(f *testing.F) {
	sp := mergeSpec(f, nil)
	f.Add(int64(1), uint8(3), uint16(1000), uint8(20))
	f.Add(int64(2), uint8(1), uint16(1), uint8(40))
	f.Add(int64(3), uint8(9), uint16(20000), uint8(8))
	f.Add(int64(4), uint8(4), uint16(9000), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, shards uint8, size uint16, spread uint8) {
		r := rand.New(rand.NewSource(seed))
		ties := []time.Duration{0, 1, 120369, 1<<32 - 1, 1 << 32, time.Duration(r.Int63n(1 << 34))}
		spreadBits := 1 + int(spread)%44
		lats := make([][]time.Duration, 1+int(shards)%16)
		for i := range lats {
			for n := r.Intn(1 + int(size)%(3*latChunkMax)); n > 0; n-- {
				var d time.Duration
				switch r.Intn(8) {
				case 0, 1:
					d = ties[r.Intn(len(ties))]
				case 2:
					d = 1<<32 + time.Duration(r.Int63n(1<<40))
				default:
					d = time.Duration(r.Int63n(1 << spreadBits))
				}
				lats[i] = append(lats[i], d)
			}
		}
		if got, want := mergeLatencies(&sp, lats), sortedQuantiles(lats); got != want {
			t.Fatalf("merged p50/p99/max %v, sorted %v", got, want)
		}
	})
}

// TestLatLog checks the chunked latency log against the latencies
// appended to it: empty, one entry, either side of the first chunk's
// edge, and past the chunk cap, each with and without latencies of 2^32
// ns or more. Chunks double from latChunkMin to latChunkMax and every
// chunk but the last is full (none was ever copied to grow); the chunks
// hold every latency under 2^32 ns, 2^32-1 included, in order, and big
// every longer one, 2^32 and 2^40 included; the count covers both.
func TestLatLog(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	upToCap := latChunkMin * (2*latChunkMax/latChunkMin - 1) // every doubling, cap included
	for _, n := range []int{0, 1, latChunkMin - 1, latChunkMin, latChunkMin + 1, upToCap, upToCap + 1, upToCap + 2*latChunkMax + 7} {
		for _, long := range []bool{false, true} {
			var g latLog
			var small []uint32
			var big []time.Duration
			for i := 0; i < n; i++ {
				d := time.Duration(r.Intn(1000))
				switch {
				case long && i%97 == 5:
					d = 1<<32 - 1
				case long && i%97 == 6:
					d = 1 << 32
				case long && i%97 == 7:
					d = 1 << 40
				}
				g.add(d)
				if d < 1<<32 {
					small = append(small, uint32(d))
				} else {
					big = append(big, d)
				}
			}
			if g.n != n {
				t.Fatalf("n=%d: log counts %d entries", n, g.n)
			}
			chunks := g.full
			if g.cur != nil {
				chunks = append(chunks, g.cur)
			}
			if got := slices.Concat(chunks...); !slices.Equal(got, small) {
				t.Fatalf("n=%d long=%v: chunks hold %d entries, not the %d latencies under 2^32 ns in order", n, long, len(got), len(small))
			}
			if !slices.Equal(g.big, big) {
				t.Fatalf("n=%d long=%v: big holds %v, want %v", n, long, g.big, big)
			}
			size := latChunkMin
			for k, c := range chunks {
				if cap(c) != size || (k < len(g.full) && len(c) != size) {
					t.Fatalf("n=%d long=%v: chunk %d holds %d of %d, want a full chunk of %d", n, long, k, len(c), cap(c), size)
				}
				size = min(2*size, latChunkMax)
			}
		}
	}
}
