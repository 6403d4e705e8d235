package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// Differential tests of the frontier memo: every fleet planned through
// a shared FrontierMemo must answer ParetoFrontier, BestUnderPower and
// MinPowerMeeting exactly as a cold NewFleet over the same models does,
// and the memo must merge each distinct member-frontier prefix once.

// memoModels builds n models named dev000.. whose frontiers are drawn
// from `shapes` random sample sets, so members with equal frontiers
// recur under different names. About half the sets shift every power,
// or every throughput, of the set before them by a quarter step: same
// frontier structure, keys that differ on one axis only. Each model's
// IO shape differs (Depth is its index), so an assignment resolved
// against the wrong member's samples cannot compare equal to the cold
// build's.
func memoModels(t testing.TB, r *rand.Rand, n, shapes int) []*Model {
	t.Helper()
	type point struct{ w, mbps float64 }
	sets := make([][]point, shapes)
	for i := range sets {
		if i > 0 && r.Intn(2) == 0 {
			dw, dm := 0.25, 0.0
			if r.Intn(2) == 0 {
				dw, dm = 0, 0.25
			}
			for _, p := range sets[i-1] {
				sets[i] = append(sets[i], point{p.w + dw, p.mbps + dm})
			}
			continue
		}
		sets[i] = make([]point, 1+r.Intn(5))
		for j := range sets[i] {
			sets[i][j] = point{0.25 * float64(1+r.Intn(80)), 0.25 * float64(r.Intn(16001))}
		}
	}
	models := make([]*Model, n)
	for d := range models {
		name := fmt.Sprintf("dev%03d", d)
		set := sets[r.Intn(shapes)]
		samples := make([]Sample, len(set))
		for i, p := range set {
			samples[i] = Sample{
				Config:         Config{Device: name, PowerState: i, ChunkBytes: 4 << 10, Depth: d + 1},
				PowerW:         p.w,
				ThroughputMBps: p.mbps,
			}
		}
		m, err := NewModel(name, samples)
		if err != nil {
			t.Fatal(err)
		}
		models[d] = m
	}
	return models
}

// ssd2Models builds n models with SSD2's planning points, the fleet
// composition the serving engine plans for a homogeneous SSD2 fleet.
func ssd2Models(t testing.TB, prefix string, n int) []*Model {
	t.Helper()
	models := make([]*Model, n)
	for d := range models {
		name := fmt.Sprintf("%s%03d", prefix, d)
		var samples []Sample
		for ps, p := range [][2]float64{{14.4, 3100}, {11.7, 2230}, {9.7, 1590}} {
			samples = append(samples, Sample{
				Config:         Config{Device: name, PowerState: ps, Random: true, Write: true, ChunkBytes: 256 << 10, Depth: 64},
				PowerW:         p[0],
				ThroughputMBps: p[1],
			})
		}
		m, err := NewModel(name, samples)
		if err != nil {
			t.Fatal(err)
		}
		models[d] = m
	}
	return models
}

// checkAgainstCold fails unless fleet f answers every query as a cold
// NewFleet over its members does, at budgets and throughput targets
// drawn from r (frontier points exactly, between them, and outside the
// feasible range).
func checkAgainstCold(t testing.TB, f *Fleet, r *rand.Rand) {
	t.Helper()
	cold, err := NewFleet(f.Models()...)
	if err != nil {
		t.Fatal(err)
	}
	want := cold.ParetoFrontier()
	if got := f.ParetoFrontier(); !reflect.DeepEqual(got, want) {
		t.Fatalf("memo frontier (%d points) differs from the cold build (%d points)", len(got), len(want))
	}
	top := want[len(want)-1]
	for i := 0; i < 12; i++ {
		p := want[r.Intn(len(want))]
		budget, target := p.TotalPowerW, p.TotalMBps
		switch i % 3 {
		case 1:
			budget, target = r.Float64()*top.TotalPowerW*1.1, r.Float64()*top.TotalMBps*1.1
		case 2:
			budget, target = budget-0.01, target+0.01
		}
		got, gok := f.BestUnderPower(budget)
		ref, rok := cold.BestUnderPower(budget)
		if gok != rok || !reflect.DeepEqual(got, ref) {
			t.Fatalf("BestUnderPower(%v): memo (%v, %v W) != cold (%v, %v W)", budget, gok, got.TotalPowerW, rok, ref.TotalPowerW)
		}
		got, gok = f.MinPowerMeeting(target)
		ref, rok = cold.MinPowerMeeting(target)
		if gok != rok || !reflect.DeepEqual(got, ref) {
			t.Fatalf("MinPowerMeeting(%v): memo (%v, %v W) != cold (%v, %v W)", target, gok, got.TotalPowerW, rok, ref.TotalPowerW)
		}
	}
}

// distinctPrefixes counts the member-frontier prefixes of the given
// fleets: the number of levels a memo that never repeats a merge builds
// for them.
func distinctPrefixes(fleets ...[]*Model) int {
	seen := map[string]bool{}
	for _, models := range fleets {
		key := ""
		for _, m := range models {
			key += m.key + "|"
			seen[key] = true
		}
	}
	return len(seen)
}

func TestFrontierMemoHeterogeneousOrders(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		models := memoModels(t, r, 2+r.Intn(7), 1+r.Intn(4))
		memo := NewFrontierMemo()
		var planned [][]*Model
		for k := 0; k < 4; k++ {
			order := append([]*Model(nil), models...)
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			f, err := memo.NewFleet(order...)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstCold(t, f, r)
			planned = append(planned, order)
		}
		if got, want := memo.Merges(), distinctPrefixes(planned...); got != want {
			t.Fatalf("seed %d: memo merged %d levels, want %d distinct prefixes", seed, got, want)
		}
	}
}

func TestFrontierMemoHomogeneousThinned(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	memo := NewFrontierMemo()
	big, err := memo.NewFleet(ssd2Models(t, "a", 64)...)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstCold(t, big, r)
	if n := len(big.ParetoFrontier()); n != maxFrontierPoints {
		t.Fatalf("64 SSD2 frontier has %d points, want the thinning cap %d", n, maxFrontierPoints)
	}
	// A second, differently named fleet of the same composition and a
	// shorter one are prefixes of the first: no level merges again.
	for _, n := range []int{64, 61} {
		f, err := memo.NewFleet(ssd2Models(t, "b", n)...)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstCold(t, f, r)
	}
	if got := memo.Merges(); got != 64 {
		t.Fatalf("memo merged %d levels over 64-, 64- and 61-member SSD2 fleets, want 64", got)
	}
}

func TestFrontierMemoSubsets(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		models := memoModels(t, r, 3+r.Intn(8), 1+r.Intn(3))
		full, err := NewFleet(models...)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstCold(t, full, r)
		planned := [][]*Model{models}
		for k := 0; k < 5; k++ {
			var sub []*Model
			for _, m := range models {
				if r.Intn(3) > 0 {
					sub = append(sub, m)
				}
			}
			if len(sub) == 0 {
				continue
			}
			f, err := full.Memo().NewFleet(sub...)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstCold(t, f, r)
			planned = append(planned, sub)
		}
		if got, want := full.Memo().Merges(), distinctPrefixes(planned...); got != want {
			t.Fatalf("seed %d: memo merged %d levels, want %d distinct prefixes", seed, got, want)
		}
	}
}

func TestFrontierMemoRepeatedComposition(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	models := memoModels(t, r, 8, 3)
	memo := NewFrontierMemo()
	first, err := memo.NewFleet(models...)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstCold(t, first, r)
	merged := memo.Merges()
	for k := 0; k < 3; k++ {
		again, err := memo.NewFleet(models...)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstCold(t, again, r)
	}
	if got := memo.Merges(); got != merged {
		t.Fatalf("revisiting a composition merged %d more levels", got-merged)
	}
}

// TestFrontierMemoConcurrent plans through one memo from several
// goroutines at once, over one shared model set, and checks every
// result against a cold build and that every prefix was merged once.
func TestFrontierMemoConcurrent(t *testing.T) {
	const workers = 6
	memo := NewFrontierMemo()
	models := memoModels(t, rand.New(rand.NewSource(3)), 12, 2)
	fleets := make([]*Fleet, workers)
	frontiers := make([][]Assignment, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Each worker drops members by its own index, so compositions
		// differ past a shared prefix.
		var sub []*Model
		for i, m := range models {
			if i%workers != w || i < 4 {
				sub = append(sub, m)
			}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f, err := memo.NewFleet(sub...)
			if err != nil {
				errs[w] = err
				return
			}
			fleets[w] = f
			frontiers[w] = f.ParetoFrontier()
		}(w)
	}
	wg.Wait()
	r := rand.New(rand.NewSource(9))
	var planned [][]*Model
	for w, f := range fleets {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		cold, err := NewFleet(f.Models()...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(frontiers[w], cold.ParetoFrontier()) {
			t.Fatalf("worker %d: concurrent memo frontier differs from the cold build", w)
		}
		checkAgainstCold(t, f, r)
		planned = append(planned, f.Models())
	}
	if got, want := memo.Merges(), distinctPrefixes(planned...); got != want {
		t.Fatalf("memo merged %d levels, want %d distinct prefixes", got, want)
	}
}

// FuzzFrontierMemo runs the differential on random model sets, member
// subsets and budgets: a fleet planned through a memo already holding a
// superset composition must match a cold build.
func FuzzFrontierMemo(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(2), uint64(0b10110))
	f.Add(int64(2), uint8(12), uint8(1), uint64(0xfff0))
	f.Add(int64(3), uint8(9), uint8(4), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, n, shapes uint8, drop uint64) {
		r := rand.New(rand.NewSource(seed))
		models := memoModels(t, r, 1+int(n%16), 1+int(shapes%5))
		full, err := NewFleet(models...)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstCold(t, full, r)
		var sub []*Model
		for i, m := range models {
			if drop&(1<<i) == 0 {
				sub = append(sub, m)
			}
		}
		if len(sub) == 0 {
			return
		}
		f, err := full.Memo().NewFleet(sub...)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstCold(t, f, r)
		if got, want := full.Memo().Merges(), distinctPrefixes(models, sub); got != want {
			t.Fatalf("memo merged %d levels, want %d distinct prefixes", got, want)
		}
	})
}
