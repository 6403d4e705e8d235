package serve

import (
	"slices"
	"time"

	"wattio/internal/meso"
	"wattio/internal/telemetry/invariant"
)

// Cohorts and group-level parking: a shard's lanes of one profile form
// a cohort of interchangeable members, and every shard plans its budget
// over cohorts (groupplan.go) in O(#buckets). With Spec.MesoGroupMin
// set, a cohort at least that big virtualizes: it keeps only a few
// resident probe lanes (plus any fault-injected members) in mechanistic
// simulation, and the rest are virtual — no devices, no governors, no
// arrival streams — accounted by meso.GroupPool buckets keyed (cohort,
// power state). Every other cohort is fully resident, which makes a
// plain fleet the case with no virtual member at all. Probes donate
// measured operating points to their bucket when they park, and the
// energy the virtual population accrued before its first calibration
// is backfilled retroactively into the shard's interval accounting —
// always from a measurement, with the planning table only as a
// settle-time fallback for buckets no probe ever reached.
//
// Everything runs on the shard's single goroutine and virtual clock, so
// the determinism contract is untouched: same spec, same report, at any
// GOMAXPROCS.

// warmBatch is one churn event's warming virtual members of a cohort:
// admitted at `at`, serving from warmAt, n members still warming.
// Removals of warming members decrement the newest non-empty batch —
// scale-in pops the highest group numbers, which the newest batch owns.
type warmBatch struct {
	at, warmAt time.Duration
	n          int
}

// groupCohort is one profile's member set within a shard.
type groupCohort struct {
	pi      int // profile index — the global cohort id
	profile string
	count   int // members in this shard, residents included
	ladder  []ladderLevel
	// virtual marks a cohort that virtualizes (Spec.MesoGroupMin > 0 and
	// at least that many members at build): churn admits its new members
	// as virtual ones. Any other cohort is fully resident.
	virtual bool
	// stateful marks a profile whose devices have selectable power
	// states. They all share one table, so assignResident reads it from
	// the first resident it places (statesRead) and later re-plans never
	// copy a device's table.
	stateful, statesRead bool

	// resOrder lists the resident lanes, probes first (they can park and
	// calibrate) then barred members (faulted), then members churn
	// admitted to a fully resident cohort. probes is the probe prefix
	// length.
	resOrder []*lane
	probes   int

	// warming counts virtual members admitted by churn whose warm-up
	// has not completed: they sit in the cohort's idle bucket (counted
	// in `count`, drawing power, serving nothing) and are excluded from
	// the serving distribution until their batch's warm event fires.
	warming     int
	warmBatches []warmBatch
}

type groupState struct {
	s *shard

	// buildGroups is the ascending list of resident replica-group
	// numbers runShard materializes.
	buildGroups []int

	cohorts []groupCohort // indexed by profile index
	applied bool
}

// planGroups decides residency for the shard's slice before any device
// exists, from the pre-drawn fault outcomes. Residents are the first
// MesoProbes non-faulted members of each virtualized cohort plus every
// faulted member; every other cohort stays fully resident. Members of
// cohort pi are the g ≡ pi (mod P) in [g0, g1), so each count is
// arithmetic and the walk visits residents only: the pass costs
// O(#cohorts + #residents + #faulted), whatever the virtual population.
func planGroups(s *shard, rg shardRange, pre map[int]*preFault) *groupState {
	sp := s.spec
	g2 := &groupState{s: s}

	faulted := make([]int, 0, len(pre))
	for gi := range pre {
		faulted = append(faulted, gi/sp.Replicas)
	}
	slices.Sort(faulted)
	faulted = slices.Compact(faulted)

	P := len(sp.Profiles)
	g2.cohorts = make([]groupCohort, P)
	for pi := range g2.cohorts {
		c := &g2.cohorts[pi]
		c.pi, c.profile, c.ladder = pi, sp.Profiles[pi], profileLadders[sp.Profiles[pi]]
		first := rg.g0 + (pi-rg.g0%P+P)%P
		if first < rg.g1 {
			c.count = (rg.g1-1-first)/P + 1
		}
		c.virtual = sp.MesoGroupMin > 0 && c.count >= sp.MesoGroupMin
		// The non-faulted residents: every member of a resident cohort,
		// the probe prefix of a virtual one.
		probes := 0
		for g := first; g < rg.g1 && (!c.virtual || probes < sp.MesoProbes); g += P {
			if _, barred := slices.BinarySearch(faulted, g); !barred {
				g2.buildGroups = append(g2.buildGroups, g)
				probes++
			}
		}
	}
	g2.buildGroups = append(g2.buildGroups, faulted...)
	slices.Sort(g2.buildGroups)
	return g2
}

// bind runs on the first apply, after the resident lanes exist: map
// lanes to cohort slots (probes ahead of barred members, each in build
// order).
func (g *groupState) bind() {
	barred := make([][]*lane, len(g.cohorts))
	for _, l := range g.s.lanes {
		if l.faultEnd > 0 {
			barred[l.pi] = append(barred[l.pi], l)
		} else {
			g.cohorts[l.pi].resOrder = append(g.cohorts[l.pi].resOrder, l)
		}
	}
	virtual := 0
	for pi := range g.cohorts {
		c := &g.cohorts[pi]
		c.probes = len(c.resOrder)
		c.resOrder = append(c.resOrder, barred[pi]...)
		virtual += c.count - len(c.resOrder)
	}
	g.s.res.MesoGroupLanes = virtual
}

// warmKey is the cohort's idle-bucket key: state -1 is outside every
// ladder level, so the bucket never collides with a serving one.
func (g *groupState) warmKey(c *groupCohort) meso.GroupKey {
	return meso.GroupKey{Cohort: c.pi, State: -1}
}

// warmOpW is the per-lane draw imposed on warming members: the ladder's
// top level times the replica count — devices power on at full draw,
// exactly as materialized lanes enter the run.
func (g *groupState) warmOpW(c *groupCohort) float64 {
	return c.ladder[len(c.ladder)-1].powerW * float64(g.s.spec.Replicas)
}

// apply is the shard's re-plan: bulk-allocate every cohort member to a
// ladder level under the shard's budget slice, retarget resident
// devices and governors, and move bucket counts — O(#buckets +
// #residents), independent of the virtual population.
func (g *groupState) apply(fleetW float64) {
	s := g.s
	sp := s.spec
	now := s.eng.Now()
	if !g.applied {
		g.bind()
	}
	slice := fleetW * float64(s.liveDevs) / float64(s.fleetLive)

	// Warming members hold budget share but cannot be planned — their
	// imposed power-on draw comes off the top of the slice before the
	// serving population divides the rest.
	var warmW float64
	for pi := range g.cohorts {
		c := &g.cohorts[pi]
		if c.warming > 0 {
			warmW += g.warmOpW(c) * float64(c.warming)
		}
	}
	if warmW > 0 {
		if slice -= warmW; slice < 0 {
			slice = 0
		}
	}

	demands := make([]cohortDemand, len(g.cohorts))
	for pi := range g.cohorts {
		c := &g.cohorts[pi]
		demands[pi] = cohortDemand{ladder: c.ladder, count: c.count - c.warming, laneScale: float64(sp.Replicas)}
	}
	dist, ok := planShares(demands, slice)
	if !ok {
		// Infeasible slice: keep the previous assignment (first apply:
		// everything at the top level, matching the devices' power-on
		// states) rather than thrash.
		s.res.Infeasible++
		if g.applied {
			return
		}
		dist = make([][]int, len(g.cohorts))
		for pi := range g.cohorts {
			c := &g.cohorts[pi]
			dist[pi] = make([]int, len(c.ladder))
			dist[pi][len(c.ladder)-1] = c.count - c.warming
		}
	} else {
		s.res.Replans++
	}

	var pos []*lane
	for pi := range g.cohorts {
		c := &g.cohorts[pi]
		if c.count == 0 {
			continue
		}
		if c.virtual {
			s.res.MesoGroupScans += len(c.ladder)
		}
		rem := append([]int(nil), dist[pi]...)

		// Residents take their levels from the shared distribution:
		// first a coverage pass placing one probe on each populated
		// level (so every live bucket has a calibration source), then
		// the rest onto whichever level has the most members left.
		// Residents retired by churn hold no level and are skipped.
		pos = pos[:0]
		probes := 0
		for k, l := range c.resOrder {
			if l.gone() {
				continue
			}
			if k < c.probes {
				probes++
			}
			pos = append(pos, l)
		}
		assigned := 0
		for j := 0; j < len(rem) && assigned < probes; j++ {
			if rem[j] > 0 {
				g.assignResident(c, pos[assigned], j)
				rem[j]--
				assigned++
			}
		}
		for ; assigned < len(pos); assigned++ {
			best := -1
			for j := range rem {
				if rem[j] > 0 && (best < 0 || rem[j] > rem[best]) {
					best = j
				}
			}
			g.assignResident(c, pos[assigned], best)
			rem[best]--
		}

		// Whatever remains is the virtual population per level.
		for j := range rem {
			key := meso.GroupKey{Cohort: c.pi, State: c.ladder[j].level}
			if rem[j] > 0 || s.ledger.Count(key) > 0 {
				s.ledger.SetCount(key, rem[j], now)
			}
		}
	}

	s.retarget()
	g.applied = true
}

// assignResident points resident lane l of cohort c at ladder level j:
// its devices move to the level's power state and their governor
// targets follow. A device refusing the command (an injected
// power-fault) keeps its state and counts one compensation, so
// Compensations is the number of refusing devices summed over re-plans.
func (g *groupState) assignResident(c *groupCohort, l *lane, j int) {
	l.level, l.planW = j, c.ladder[j].powerW
	if !c.statesRead {
		c.stateful, c.statesRead = len(l.devs[0].PowerStates()) > 0, true
	}
	if !c.stateful {
		return
	}
	for _, d := range l.devs {
		if err := d.SetPowerState(c.ladder[j].level); err != nil {
			g.s.res.Compensations++
		}
	}
}

// addResident appends lane l, just admitted by churn to a fully
// resident cohort, to the cohort's residents at its power-on (top)
// level; the caller's re-plan assigns its level.
func (g *groupState) addResident(l *lane) {
	c := &g.cohorts[l.pi]
	c.count++
	c.resOrder = append(c.resOrder, l)
	l.level = len(c.ladder) - 1
}

// addVirtual admits one churned replica group as a virtual cohort
// member: no devices, no lane — the member enters the cohort's idle
// (warm) bucket at the imposed power-on draw and joins the serving
// distribution when its warm batch completes. The caller re-plans
// afterward.
func (g *groupState) addVirtual(ad laneAdd, at, warmAt time.Duration, now time.Duration) {
	c := &g.cohorts[ad.pi]
	c.count++
	c.warming++
	if n := len(c.warmBatches); n > 0 && c.warmBatches[n-1].warmAt == warmAt && c.warmBatches[n-1].at == at {
		c.warmBatches[n-1].n++
	} else {
		c.warmBatches = append(c.warmBatches, warmBatch{at: at, warmAt: warmAt, n: 1})
	}
	g.s.ledger.Impose(g.warmKey(c), c.warming, g.warmOpW(c), false, now)
	g.s.res.MesoGroupLanes++
}

// removeMember retires one cohort member at a scale-in epoch. A
// materialized member (probe, faulted resident, or any member of a
// fully resident cohort) drains mechanistically; a virtual member
// leaves its bucket at the caller's re-plan — its analytic queue is
// empty by construction, so its drain recovery is instantaneous. A
// member removed while still warming leaves the idle bucket instead and
// decrements the newest non-empty warm batch (scale-in pops the newest
// group numbers).
func (g *groupState) removeMember(rm churnRemove, now time.Duration) {
	c := &g.cohorts[rm.pi]
	c.count--
	if !c.virtual || g.s.laneOf(rm.g) != nil {
		g.s.beginRemove(rm.g, now)
		return
	}
	if rm.warming {
		c.warming--
		for k := len(c.warmBatches) - 1; k >= 0; k-- {
			if c.warmBatches[k].n > 0 {
				c.warmBatches[k].n--
				break
			}
		}
		g.s.ledger.Impose(g.warmKey(c), c.warming, g.warmOpW(c), false, now)
	}
	g.s.res.DrainLats = append(g.s.res.DrainLats, 0)
}

// warmBatchDone completes the warm batch of cohort pi admitted at
// `at`: its surviving members leave the idle bucket for the serving
// distribution (the caller re-plans) and each reports its modeled
// warm-up as the recovery latency.
func (g *groupState) warmBatchDone(pi int, at, warmAt time.Duration, now time.Duration) {
	c := &g.cohorts[pi]
	for k := range c.warmBatches {
		b := c.warmBatches[k]
		if b.at != at || b.warmAt != warmAt {
			continue
		}
		c.warmBatches = append(c.warmBatches[:k], c.warmBatches[k+1:]...)
		if b.n > 0 {
			c.warming -= b.n
			g.s.ledger.Impose(g.warmKey(c), c.warming, g.warmOpW(c), false, now)
			for j := 0; j < b.n; j++ {
				g.s.res.WarmupLats = append(g.s.res.WarmupLats, warmAt-at)
			}
		}
		return
	}
}

// probeParked runs when a resident probe lane parks: its dwell-window
// measured draw calibrates the bucket its cohort-mates occupy at the
// same level. A recalibration of an already-measured bucket feeds the
// drift probe — the same gate sentinel re-measurements use — before
// folding into the bucket's running mean; a first calibration converts
// the bucket's pending spans into interval backfill.
func (g *groupState) probeParked(l *lane, watts float64, now time.Duration, drift *invariant.DriftProbe) {
	c := &g.cohorts[l.pi]
	j := l.level
	key := meso.GroupKey{Cohort: c.pi, State: c.ladder[j].level}
	if !g.s.ledger.Has(key) {
		return // no virtual members ever held this level
	}
	if g.s.ledger.Calibrated(key) {
		drift.Observe(g.s.ledger.Op(key), watts)
	}
	g.amendBackfill(g.s.ledger.Calibrate(key, watts, now))
}

// amendBackfill distributes backfill spans into the shard's interval
// accounting: recorded intervals are amended in place (merge computes
// tracking from the amended values), and the portion falling inside the
// in-progress interval rides ivCarry into its upcoming record. Virtual
// energy thereby lands in the exact control periods it was consumed in.
func (g *groupState) amendBackfill(spans []meso.BackfillSpan) {
	s := g.s
	cp := s.spec.ControlPeriod
	for _, sp := range spans {
		if sp.To <= sp.From {
			continue
		}
		w := sp.Joules / (sp.To - sp.From).Seconds()
		k := int(sp.From / cp)
		for t := sp.From; t < sp.To; k++ {
			end := time.Duration(k+1) * cp
			if end > sp.To {
				end = sp.To
			}
			j := w * (end - t).Seconds()
			if k < s.ivIdx && k < len(s.res.IntervalEnergyJ) {
				s.res.IntervalEnergyJ[k] += j
			} else {
				s.ivCarry += j
			}
			s.res.MesoGroupJ += j
			t = end
		}
	}
}

// settle closes the cohorts at the horizon, after every parked lane
// has settled: buckets no probe ever calibrated fall back to their
// planning-table draw (backfilled like any calibration), and the
// cohorts' share of the ledger's energy lands in the report — the
// ledger's total less the lane-bucket energy the meso tier settled into
// MesoAggJ. A shard with no cohort bucket has no share: the difference
// would be only rounding.
func (g *groupState) settle(now time.Duration) {
	s := g.s
	for pi := range g.cohorts {
		c := &g.cohorts[pi]
		for j := range c.ladder {
			key := meso.GroupKey{Cohort: c.pi, State: c.ladder[j].level}
			if !s.ledger.Has(key) || s.ledger.Calibrated(key) {
				continue
			}
			s.res.MesoGroupScans++
			g.amendBackfill(s.ledger.Calibrate(key, c.ladder[j].powerW*float64(s.spec.Replicas), now))
		}
	}
	if s.res.MesoGroupBuckets = s.ledger.Buckets(); s.res.MesoGroupBuckets > 0 {
		s.res.MesoGroupJ += s.ledger.EnergyJ(now) - s.res.MesoAggJ
	}
}
