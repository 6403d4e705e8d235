package serve

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// Set-up oracles: planGroups and compileChurn decide residency and the
// churn epochs from arithmetic over cohorts and churned groups only.
// The walks below are their per-member originals, kept as the reference
// they must agree with on every input.

// walkPlanGroups decides residency by visiting every member of the
// shard's slice in ascending order.
func walkPlanGroups(s *shard, rg shardRange, pre map[int]*preFault) *groupState {
	sp := s.spec
	g2 := &groupState{s: s}

	P := len(sp.Profiles)
	faultedGroup := make(map[int]bool)
	for gi := range pre {
		faultedGroup[gi/sp.Replicas] = true
	}
	g2.cohorts = make([]groupCohort, P)
	for g := rg.g0; g < rg.g1; g++ {
		g2.cohorts[g%P].count++
	}
	for pi := range g2.cohorts {
		c := &g2.cohorts[pi]
		c.pi, c.profile, c.ladder = pi, sp.Profiles[pi], profileLadders[sp.Profiles[pi]]
		c.virtual = sp.MesoGroupMin > 0 && c.count >= sp.MesoGroupMin
	}
	probes := make([]int, P)
	for g := rg.g0; g < rg.g1; g++ {
		switch {
		case !g2.cohorts[g%P].virtual, faultedGroup[g]:
		case probes[g%P] < sp.MesoProbes:
			probes[g%P]++
		default:
			continue // virtual
		}
		g2.buildGroups = append(g2.buildGroups, g)
	}
	return g2
}

// walkCompileChurn compiles the churn epochs from an explicit stack of
// every live group per profile, build-time members included.
func walkCompileChurn(sp *Spec, ranges []shardRange) []*shardChurn {
	if len(sp.Churn) == 0 {
		return nil
	}
	P := len(sp.Profiles)
	groups0 := sp.Size / sp.Replicas
	out := make([]*shardChurn, len(ranges))
	for i := range out {
		out[i] = &shardChurn{}
	}
	shardOf := func(g int) int {
		if g < groups0 {
			for si, rg := range ranges {
				if g >= rg.g0 && g < rg.g1 {
					return si
				}
			}
		}
		return g % len(ranges)
	}
	stacks := make([][]int, P)
	for g := 0; g < groups0; g++ {
		stacks[g%P] = append(stacks[g%P], g)
	}
	warmAt := map[int]time.Duration{}
	perLive := make([]int, len(ranges))
	for si, rg := range ranges {
		perLive[si] = (rg.g1 - rg.g0) * sp.Replicas
	}
	fleetLive := sp.Size
	next := groups0
	for _, ev := range sp.Churn {
		pi := slices.Index(sp.Profiles, ev.Profile)
		wa := ev.At + ev.Warmup
		for si := range out {
			out[si].epochs = append(out[si].epochs, churnEpoch{at: ev.At, warmAt: wa})
		}
		ep := func(si int) *churnEpoch {
			eps := out[si].epochs
			return &eps[len(eps)-1]
		}
		for k := 0; k < ev.Add; k++ {
			g := next
			next++
			stacks[pi] = append(stacks[pi], g)
			warmAt[g] = wa
			si := shardOf(g)
			e := ep(si)
			e.adds = append(e.adds, laneAdd{g: g, pi: pi})
			perLive[si] += sp.Replicas
			fleetLive += sp.Replicas
		}
		for k := 0; k < ev.Remove; k++ {
			st := stacks[pi]
			g := st[len(st)-1]
			stacks[pi] = st[:len(st)-1]
			warming := warmAt[g] > ev.At
			delete(warmAt, g)
			si := shardOf(g)
			e := ep(si)
			e.removes = append(e.removes, churnRemove{g: g, pi: pi, warming: warming})
			perLive[si] -= sp.Replicas
			fleetLive -= sp.Replicas
		}
		for si := range out {
			e := ep(si)
			e.fleetLive = fleetLive
			e.live = perLive[si]
		}
	}
	return out
}

// residencyCase is one set-up input decoded from a byte script: a spec
// (profile mix, replicas, fleet size, group parking, churn schedule),
// a partition of its groups into shard ranges, and faulted devices.
type residencyCase struct {
	sp      Spec
	ranges  []shardRange
	faulted []int // device indices, possibly repeated
}

// byteScript hands out the bytes of a script, then zeros.
type byteScript []byte

func (b *byteScript) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeResidencyCase decodes a byte script into a case that Validate
// would accept up to the shard count (the ranges are an arbitrary
// partition, not Run's equal one).
func decodeResidencyCase(data []byte) residencyCase {
	b := byteScript(data)
	profiles := []string{"SSD2", "SSD1", "HDD", "C960"}
	P := 1 + b.next()%len(profiles)
	sp := Spec{Profiles: profiles[:P], Replicas: 1 + b.next()%3}
	groups := 1 + (b.next()|b.next()<<8)%600
	sp.Size = groups * sp.Replicas
	if gm := b.next() % 24; gm > 0 {
		sp.MesoGroupMin = gm
		sp.MesoProbes = b.next() % gm
	}

	// Shard ranges: sorted distinct cut points inside (0, groups).
	cuts := []int{0, groups}
	for n := b.next() % 8; n > 0; n-- {
		cuts = append(cuts, 1+(b.next()|b.next()<<8)%groups)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	var c residencyCase
	for i := 1; i < len(cuts); i++ {
		c.ranges = append(c.ranges, shardRange{g0: cuts[i-1], g1: cuts[i]})
	}

	// Faulted devices, clustered toward the fleet's start so probes
	// step over them.
	for n := b.next() % 24; n > 0; n-- {
		span := sp.Size
		if b.next()%2 == 0 {
			span = min(span, 8*P*sp.Replicas)
		}
		c.faulted = append(c.faulted, (b.next()|b.next()<<8)%span)
	}

	// Churn: events 1-4 ms apart with warm-ups of 0-7 ms, so a removal
	// may land before, at or after an earlier add's warm-up end. A
	// removal may take every live group of the cohort but one.
	live := make([]int, P)
	for g := 0; g < groups; g++ {
		live[g%P]++
	}
	at := time.Duration(0)
	for n := b.next() % 6; n > 0; n-- {
		at += time.Duration(1+b.next()%4) * time.Millisecond
		pi := b.next() % P
		ev := ChurnEvent{At: at, Profile: sp.Profiles[pi], Add: b.next() % 12,
			Warmup: time.Duration(b.next()%8) * time.Millisecond}
		if live[pi]+ev.Add == 0 { // a cohort with no build-time member
			ev.Add = 1
		}
		live[pi] += ev.Add
		ev.Remove = b.next() % live[pi]
		if ev.Add+ev.Remove == 0 {
			ev.Add = 1
			live[pi]++
		}
		live[pi] -= ev.Remove
		sp.Churn = append(sp.Churn, ev)
	}
	c.sp = sp
	return c
}

// residencyTally counts the churn paths a case exercised.
type residencyTally struct {
	belowBuild, warmingRemoves int
}

// checkResidency fails t unless planGroups agrees with the walk on
// every shard range (build list, cohort counts and virtual flags) and
// compileChurn agrees with the walk on every epoch.
func checkResidency(t testing.TB, c residencyCase, tally *residencyTally) {
	t.Helper()
	sp := &c.sp
	for si, rg := range c.ranges {
		pre := map[int]*preFault{}
		for _, gi := range c.faulted {
			if g := gi / sp.Replicas; g >= rg.g0 && g < rg.g1 {
				pre[gi] = &preFault{}
			}
		}
		s := &shard{spec: sp}
		got, want := planGroups(s, rg, pre), walkPlanGroups(s, rg, pre)
		if !slices.Equal(got.buildGroups, want.buildGroups) {
			t.Fatalf("%+v shard %d %v faulted %v: build groups %v, want %v",
				sp, si, rg, c.faulted, got.buildGroups, want.buildGroups)
		}
		for pi := range want.cohorts {
			g, w := &got.cohorts[pi], &want.cohorts[pi]
			if g.pi != w.pi || g.profile != w.profile || g.count != w.count || g.virtual != w.virtual {
				t.Fatalf("%+v shard %d %v: cohort %d {count %d virtual %v}, want {count %d virtual %v}",
					sp, si, rg, pi, g.count, g.virtual, w.count, w.virtual)
			}
		}
	}

	got, want := compileChurn(sp, c.ranges), walkCompileChurn(sp, c.ranges)
	if !reflect.DeepEqual(got, want) {
		for si := range want {
			if !reflect.DeepEqual(got[si], want[si]) {
				t.Fatalf("%+v ranges %v: shard %d epochs\n got %+v\nwant %+v", sp, c.ranges, si, *got[si], *want[si])
			}
		}
		t.Fatalf("%+v ranges %v: compiled churn differs", sp, c.ranges)
	}
	if tally == nil {
		return
	}
	groups0 := sp.Size / sp.Replicas
	for _, sc := range want {
		for _, ep := range sc.epochs {
			for _, rm := range ep.removes {
				if rm.g < groups0 {
					tally.belowBuild++
				}
				if rm.warming {
					tally.warmingRemoves++
				}
			}
		}
	}
}

// TestResidencyPlanMatchesWalk compares the set-up passes with their
// per-member walks over random shard ranges, profile mixes, replica
// counts, group-parking settings, faulted sets and churn schedules. The
// schedules must have removed build-time members and still-warming
// groups, or the comparison never reached those paths.
func TestResidencyPlanMatchesWalk(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	var tally residencyTally
	data := make([]byte, 96)
	for i := 0; i < 3000; i++ {
		rng.Read(data)
		checkResidency(t, decodeResidencyCase(data), &tally)
	}
	if tally.belowBuild == 0 || tally.warmingRemoves == 0 {
		t.Fatalf("schedules never reached a path: %d build-time removals, %d warming removals",
			tally.belowBuild, tally.warmingRemoves)
	}
	t.Logf("%d build-time removals, %d warming removals", tally.belowBuild, tally.warmingRemoves)
}

// FuzzResidencyPlan is TestResidencyPlanMatchesWalk's comparison over
// fuzzer-chosen byte scripts.
func FuzzResidencyPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 200, 0, 4, 2, 1, 100, 0})
	// Two profiles, mirrored, group parking at 5 with 2 probes, three
	// shards, faults near the start, one add-then-drain cycle.
	f.Add([]byte{1, 1, 180, 0, 5, 2, 2, 40, 0, 90, 0, 6, 0, 1, 0, 0, 3, 0, 1, 4, 0,
		2, 0, 0, 5, 3, 0, 2, 1, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkResidency(t, decodeResidencyCase(data), nil)
	})
}
