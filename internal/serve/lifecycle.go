package serve

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"wattio/internal/sim"
	"wattio/internal/workload"
)

// Lane lifecycle (Spec.Churn): the fleet is no longer a static set.
// Replica groups admitted by a churn event move through
//
//	pending --(event At)--> warming --(At+Warmup)--> active
//	active  --(remove At)-> removing --(queue+inflight empty)--> removed
//
// A warming lane exists (devices, governors, budget share) but has no
// arrival process yet; warming and active lanes are both laneHydrated
// (or cycling through the meso states) in the lane's one state machine.
//
// The schedule is compiled once, spec-side, into per-shard epochs
// before any shard runs: which global group numbers join or leave,
// which shard owns each, and the live device counts after every event.
// Shards therefore never communicate — each sees the same epoch
// timeline and takes only its own membership changes, so reports stay
// bit-identical at any GOMAXPROCS. Churned lanes draw their randomness
// from fresh RNG roots keyed by global group number, never from the
// shard's build-time stream, so admission order cannot perturb any
// existing lane's draws and a group's behavior is independent of when
// it joins.
//
// With Spec.Churn empty, compileChurn returns nil and no churn epoch is
// posted. The rest of the file — arrival starts, rate steps and the one
// re-plan entry — serves every run.

// laneAdd is one compiled scale-out member: a fresh global replica
// group number and its profile index.
type laneAdd struct {
	g  int
	pi int
}

// churnRemove is one compiled scale-in member. warming marks a group
// removed before its warm-up completed (it never served traffic).
type churnRemove struct {
	g       int
	pi      int
	warming bool
}

// churnEpoch is one churn event as seen by one shard: the shard's own
// membership changes plus the fleet-wide and shard-live device counts
// after the event — every shard gets an epoch per event, because the
// budget-slice denominator changes for all of them.
type churnEpoch struct {
	at     time.Duration
	warmAt time.Duration
	// live and fleetLive are the shard's and the fleet's live device
	// counts after this event (warming members included: they hold
	// budget share from admission).
	live      int
	fleetLive int
	adds      []laneAdd
	removes   []churnRemove
}

// shardChurn is one shard's compiled epoch timeline.
type shardChurn struct {
	epochs []churnEpoch
}

// addedGroup is one live group churn admitted, as compileChurn tracks
// it: the global group number and the instant its warm-up ends.
type addedGroup struct {
	g      int
	warmAt time.Duration
}

// compileChurn lowers the spec's churn schedule into per-shard epochs.
// Scale-out allocates fresh, never-reused group numbers round-robined
// across shards; scale-in pops the highest-numbered live group of the
// event's profile (newest first), so removal targets are deterministic
// functions of the spec alone. Returns nil when the spec has no churn.
//
// A profile's live groups are its build-time members still present,
// kept as a count because they are pi, pi+P, … in ascending order,
// topped by the groups churn added, which are newer and so numbered
// higher. Only the added ones are listed, so the pass costs
// O(#profiles × #events + #shards × #events + #churned groups ×
// log #shards), whatever the build-time fleet.
func compileChurn(sp *Spec, ranges []shardRange) []*shardChurn {
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
			return sort.Search(len(ranges), func(si int) bool { return ranges[si].g1 > g })
		}
		return g % len(ranges)
	}
	built := make([]int, P) // live build-time members per profile
	for pi := range built {
		built[pi] = groups0 / P
		if pi < groups0%P {
			built[pi]++
		}
	}
	added := make([][]addedGroup, P) // live added groups per profile, ascending
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
			added[pi] = append(added[pi], addedGroup{g: g, warmAt: wa})
			si := shardOf(g)
			e := ep(si)
			e.adds = append(e.adds, laneAdd{g: g, pi: pi})
			perLive[si] += sp.Replicas
			fleetLive += sp.Replicas
		}
		for k := 0; k < ev.Remove; k++ {
			var rm churnRemove
			if n := len(added[pi]); n > 0 {
				// A group popped before its warm event fired never
				// served; equality means the warm event ran first (posts
				// at the same instant fire in registration order,
				// earlier events first).
				top := added[pi][n-1]
				added[pi] = added[pi][:n-1]
				rm = churnRemove{g: top.g, pi: pi, warming: top.warmAt > ev.At}
			} else {
				built[pi]--
				rm = churnRemove{g: pi + built[pi]*P, pi: pi}
			}
			si := shardOf(rm.g)
			e := ep(si)
			e.removes = append(e.removes, rm)
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

// churnFor returns shard i's compiled timeline (nil when churn is off).
func churnFor(ch []*shardChurn, i int) *shardChurn {
	if ch == nil {
		return nil
	}
	return ch[i]
}

// startLaneArrivals (re)starts lane l's open-loop arrival process on
// its retained stream for the remaining horizon, on the per-lane rate
// schedule, which picks up whichever step is in force at the current
// instant. No-op when the horizon has passed.
func (s *shard) startLaneArrivals(l *lane) error {
	sp := s.spec
	if s.eng.Now() >= sp.Horizon {
		return nil
	}
	a, err := workload.StartArrivalsSchedule(s.eng, l.astream, s.laneRates, sp.Horizon, l.arrive)
	if err != nil {
		return err
	}
	l.arr = a
	return nil
}

// rateStep handles one rate-schedule boundary, after postControl has
// rehydrated every parked lane (their aggregates' operating points
// describe the old rate): the ledger settles its IO integration at the
// old rate, and probe-calibrated buckets are invalidated so probes
// re-measure under the new load. Continuing mechanistic arrival
// processes handle the boundary internally.
func (s *shard) rateStep(rs workload.RateStep) {
	now := s.eng.Now()
	// The offered load just changed discontinuously: a steady dwell
	// accumulated at the old rate must never calibrate an operating
	// point for the new one, so every live lane's window restarts here.
	// (rehydrateAll only resets the lanes it rehydrates; already-hydrated
	// lanes would otherwise straddle the boundary.)
	for _, l := range s.lanes {
		if !l.gone() {
			s.meso.resetBaseline(l)
		}
	}
	s.ledger.SetRate(rs.IOPS*float64(s.spec.active()), now)
	s.ledger.Recalibrate(now)
}

// admitLane materializes one churned replica group as a live lane:
// devices, redirector, governors, arrival stream — all drawn from a
// fresh RNG root keyed by the global group number, so the lane's
// behavior is independent of join order and of every other lane's
// stream position. Churned lanes take no fault injection: the fault
// draw pass covers the build-time fleet. Arrivals do not start here;
// the warm event does that. The lane is admitted at `at` and warms
// until warmAt, which bars it from meso parking until then; it joins
// its (fully resident) cohort at once and holds budget share from `at`.
func (s *shard) admitLane(g, pi int, at, warmAt time.Duration) error {
	lrng := sim.NewRNG(s.spec.Seed ^ shardHash("serve/churn", g))
	l, err := s.buildGroup(g, pi, lrng, nil)
	if err != nil {
		return err
	}
	l.astream = lrng.Stream("arrivals")
	l.warmFrom = at
	s.grp.addResident(l)
	if err := s.startGovernors(l); err != nil {
		return err
	}
	s.meso.addLane(l, warmAt)
	return nil
}

// beginRemove starts draining group g's lane: its budget share is gone
// (the caller re-plans without it), arrivals stop, and the lane serves
// out its queued and in-flight work before retiring. A parked lane
// settles its aggregate first; an empty lane retires on the spot.
func (s *shard) beginRemove(g int, now time.Duration) {
	l := s.laneOf(g)
	if l == nil {
		panic(fmt.Sprintf("serve: churn removes unmaterialized group %d", g))
	}
	s.meso.rehydrate(l, now, false)
	l.state = laneRemoving
	l.drainFrom = now
	if l.arr != nil {
		l.arr.Stop()
	}
	if l.inflight == 0 && l.qlen() == 0 {
		s.retireLane(l, now)
	}
}

// retireLane completes a drain: governors stop, each device's meter is
// frozen into retiredJ (the shard's energy stays continuous — removed
// devices just stop drawing), and the drain recovery latency lands in
// the shard result.
func (s *shard) retireLane(l *lane, now time.Duration) {
	l.state = laneRemoved
	for _, gv := range l.govs {
		gv.Stop()
	}
	for _, d := range l.devs {
		s.retiredJ += d.EnergyJ()
	}
	s.res.DrainLats = append(s.res.DrainLats, now-l.drainFrom)
}

// laneCompleted runs on a request completion of a lane that is warming
// or removing: the first completion of a freshly warmed lane records its
// warm-up recovery latency, and a removing lane retires the moment its
// last work finishes.
func (s *shard) laneCompleted(l *lane, now time.Duration) {
	if l.warmPending {
		l.warmPending = false
		s.res.WarmupLats = append(s.res.WarmupLats, now-l.warmFrom)
	}
	if l.state == laneRemoving && l.inflight == 0 && l.qlen() == 0 {
		s.retireLane(l, now)
	}
}

// churnEpoch executes one membership epoch (the analytic tier already
// rehydrated by postControl): apply this shard's adds then removes,
// adopt the new live counts, and re-plan under the budget in force. A
// zero-warm-up event warms its adds inline before the re-plan, so the
// epoch's single plan already serves them.
func (s *shard) churnEpoch(ep churnEpoch) {
	now := s.eng.Now()
	for _, ad := range ep.adds {
		if s.grp.cohorts[ad.pi].virtual {
			s.grp.addVirtual(ad, ep.at, ep.warmAt, now)
		} else if err := s.admitLane(ad.g, ad.pi, ep.at, ep.warmAt); err != nil {
			panic(fmt.Sprintf("serve: churn admission of group %d: %v", ad.g, err))
		}
	}
	for _, rm := range ep.removes {
		s.grp.removeMember(rm, now)
	}
	s.res.ChurnAdds += len(ep.adds)
	s.res.ChurnRemoves += len(ep.removes)
	s.liveDevs = ep.live
	s.fleetLive = ep.fleetLive
	if len(ep.adds) > 0 && ep.warmAt == ep.at {
		s.warmTransition(ep, now)
	}
	s.replanLive()
}

// warmEpoch fires when a churn event's warm-up window closes: the
// epoch's surviving adds start serving traffic and the shard re-plans
// so the fresh capacity holds real power states.
func (s *shard) warmEpoch(ep churnEpoch) {
	s.warmTransition(ep, s.eng.Now())
	s.replanLive()
}

// warmTransition moves an epoch's adds from warming to active: virtual
// cohort members leave the warm bucket for the serving distribution, and
// materialized lanes start their arrival processes (first completion
// records the warm-up recovery latency). Members removed while still
// warming are skipped — they never serve.
func (s *shard) warmTransition(ep churnEpoch, now time.Duration) {
	s.grp.warmBatchDone(ep.adds[0].pi, ep.at, ep.warmAt, now)
	for _, ad := range ep.adds {
		l := s.laneOf(ad.g)
		if l == nil || l.gone() {
			continue
		}
		l.warmPending = true
		if err := s.startLaneArrivals(l); err != nil {
			panic(fmt.Sprintf("serve: churn warm-up of group %d: %v", ad.g, err))
		}
		s.meso.resetBaseline(l)
	}
}

// replanLive is the shard's one re-plan entry — the initial plan,
// budget steps, churn epochs and warm events all go through it: the
// budget in force now is planned over the shard's cohorts (the first
// apply binds them).
func (s *shard) replanLive() {
	s.grp.apply(budgetAt(s.spec.Budget, s.eng.Now()))
}
