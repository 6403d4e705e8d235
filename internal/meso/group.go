package meso

import (
	"fmt"
	"time"
)

// Group-level parking: at fleet sizes past ~10⁵ lanes, even one
// analytic aggregate per lane is too much state and too much per-tick
// work. A GroupPool instead represents an entire cohort of
// interchangeable lanes (same profile, same offered rate, no faults) as
// a handful of buckets keyed by (cohort, planning state), each carrying
// only a member count and one calibrated per-lane operating point. The
// serving engine keeps a few resident probe lanes per cohort running
// mechanistically; every other member is virtual — never materialized —
// and accounted here in O(#buckets) per control period.
//
// Calibration is retroactive: a bucket accrues no live energy until a
// probe lane of its cohort parks at the bucket's state and donates its
// measured draw. The uncalibrated stretch is recorded as pending spans
// (virtual lane-seconds), and Calibrate converts them into backfill
// spans the caller amends into its per-interval accounting — so the
// virtual population's energy is always derived from a measured
// operating point, never from a planning prediction. IO counts need no
// calibration at all (the offered rate is power-state-independent), so
// they accrue per cohort with one exact fractional carry.
//
// Everything is pure arithmetic on virtual time: no engine, no RNG,
// deterministic at any host parallelism.

// GroupKey identifies one bucket: a cohort of interchangeable lanes and
// the planning level its members currently hold.
type GroupKey struct {
	Cohort int
	State  int
}

// BackfillSpan is an uncalibrated stretch of virtual serving owed to
// the caller's interval accounting: Joules of energy spread uniformly
// over [From, To).
type BackfillSpan struct {
	From, To time.Duration
	Joules   float64
}

// pendSpan is a closed stretch of uncalibrated membership.
type pendSpan struct {
	from, to time.Duration
	count    int
}

type groupBucket struct {
	key   GroupKey
	count int
	// op is the calibrated per-lane draw in watts; meaningful once
	// calibrated. calN counts the measurements folded into it (running
	// mean), so repeated probe parks refine the point deterministically.
	op         float64
	calibrated bool
	calN       int
	// since is the start of the bucket's current span — live accrual
	// when calibrated, pending when not.
	since time.Duration
	pend  []pendSpan
	// imposed buckets take their draw from the caller (Impose) — a
	// parked lane's measured dynamic draw, or the power-on draw of
	// warming members — never from probe calibration, so Recalibrate
	// leaves them alone.
	imposed bool
}

// cohortIO integrates a cohort's virtual IO: rate is the same at every
// power state, so one counter and one fractional carry per cohort keep
// the credited count exactly rate × member-seconds.
type cohortIO struct {
	count int
	lastT time.Duration
	carry float64
	ios   int64
}

// GroupPool is one shard's residency ledger: its group-parked cohort
// buckets and its parked lanes' buckets of one. Not safe for
// concurrent use; shards are single-threaded by construction.
type GroupPool struct {
	rateIOPS   float64 // per-lane offered rate
	bytesPerIO int64

	buckets map[GroupKey]*groupBucket
	order   []*groupBucket // deterministic iteration (insertion order)
	cohorts map[int]*cohortIO

	members int // current members across all buckets

	// O(1) energy bookkeeping: closed calibrated spans plus, for live
	// ones, sumW·now − offsetJ, where sumW = Σ op·count and
	// offsetJ = Σ op·count·since over calibrated populated buckets.
	settledJ float64
	sumW     float64
	offsetJ  float64
}

// LaneKey is the bucket of one that parked lane i occupies. Its cohort
// id is negative and unique to the lane, so the lane keeps its own IO
// carry and never collides with a member cohort; Buckets leaves lane
// buckets out.
func LaneKey(i int) GroupKey { return GroupKey{Cohort: -1 - i} }

// NewGroupPool returns an empty pool. rateIOPS is the per-lane offered
// rate and bytesPerIO the request size — uniform across the fleet spec,
// so they are pool-wide.
func NewGroupPool(rateIOPS float64, bytesPerIO int64) *GroupPool {
	return &GroupPool{
		rateIOPS:   rateIOPS,
		bytesPerIO: bytesPerIO,
		buckets:    map[GroupKey]*groupBucket{},
		cohorts:    map[int]*cohortIO{},
	}
}

// bucket returns (creating if needed) the bucket for key.
func (p *GroupPool) bucket(key GroupKey) *groupBucket {
	b, ok := p.buckets[key]
	if !ok {
		b = &groupBucket{key: key}
		p.buckets[key] = b
		p.order = append(p.order, b)
	}
	return b
}

// flush closes the bucket's current span at now and returns the energy
// it settled: a calibrated span leaves the running sums for the settled
// total, an uncalibrated one appends to the pending list (and settles
// nothing). Call before any count or op change, and open after it.
func (b *groupBucket) flush(p *GroupPool, now time.Duration) float64 {
	var j float64
	if b.count > 0 {
		if b.calibrated {
			w := b.op * float64(b.count)
			j = w * (now - b.since).Seconds()
			p.sumW -= w
			p.offsetJ -= w * b.since.Seconds()
			p.settledJ += j
		} else {
			b.pend = append(b.pend, pendSpan{from: b.since, to: now, count: b.count})
		}
	}
	b.since = now
	return j
}

// open starts the bucket's live accrual at its span start: a calibrated
// populated bucket joins the running sums.
func (b *groupBucket) open(p *GroupPool) {
	if b.calibrated && b.count > 0 {
		w := b.op * float64(b.count)
		p.sumW += w
		p.offsetJ += w * b.since.Seconds()
	}
}

// cohort returns (creating if needed) the IO integrator of cohort id.
func (p *GroupPool) cohort(id int, now time.Duration) *cohortIO {
	c, ok := p.cohorts[id]
	if !ok {
		c = &cohortIO{lastT: now}
		p.cohorts[id] = c
	}
	return c
}

// accrueIO integrates a cohort's IO up to now.
func (c *cohortIO) accrue(rate float64, now time.Duration) {
	if c.count > 0 {
		exact := rate*float64(c.count)*(now-c.lastT).Seconds() + c.carry
		n := int64(exact)
		c.ios += n
		c.carry = exact - float64(n)
	}
	c.lastT = now
}

// SetCount sets the member count of a bucket at virtual time now,
// flushing its span so past accrual is unaffected. The cohort's IO
// integration absorbs the membership delta exactly.
func (p *GroupPool) SetCount(key GroupKey, n int, now time.Duration) {
	if n < 0 {
		panic(fmt.Sprintf("meso: bucket %v count %d negative", key, n))
	}
	b := p.bucket(key)
	if n == b.count {
		return
	}
	c := p.cohort(key.Cohort, now)
	c.accrue(p.rateIOPS, now)
	b.flush(p, now)
	c.count += n - b.count
	p.members += n - b.count
	b.count = n
	b.open(p)
}

// Impose sets a bucket's member count to n at virtual time now, each
// member drawing opW watts imposed by the caller instead of calibrated
// by a probe: a parked lane's measured dynamic draw (its bucket of one,
// LaneKey), or the power-on draw of warming members. The imposed draw
// replaces the previous one; it is never averaged in. Serving members
// accrue IO in the key's cohort at the pool rate; idle ones (warming
// lanes) serve nothing. A key must be imposed with the same serving
// flag throughout. The span accrued under the previous count and draw
// settles first, and its energy is returned.
func (p *GroupPool) Impose(key GroupKey, n int, opW float64, serving bool, now time.Duration) float64 {
	if n < 0 {
		panic(fmt.Sprintf("meso: imposed bucket %v count %d negative", key, n))
	}
	if opW < 0 {
		panic(fmt.Sprintf("meso: imposed bucket %v draw %v negative", key, opW))
	}
	b := p.bucket(key)
	b.imposed, b.calibrated = true, true
	if b.count == n && (b.op == opW || n == 0) {
		b.op = opW
		return 0
	}
	if serving {
		c := p.cohort(key.Cohort, now)
		c.accrue(p.rateIOPS, now)
		c.count += n - b.count
	}
	j := b.flush(p, now)
	b.op = opW
	p.members += n - b.count
	b.count = n
	b.open(p)
	return j
}

// SetRate changes the pool-wide per-lane offered rate at virtual time
// now: every cohort's IO integration is settled at the old rate first,
// so the credited counts stay exactly rate × member-seconds across the
// boundary. Callers should follow with Recalibrate — operating points
// measured at the old rate no longer describe the new load.
func (p *GroupPool) SetRate(rateIOPS float64, now time.Duration) {
	if rateIOPS <= 0 {
		panic(fmt.Sprintf("meso: pool rate %v must be positive", rateIOPS))
	}
	for _, c := range p.cohorts {
		c.accrue(p.rateIOPS, now)
	}
	p.rateIOPS = rateIOPS
}

// Recalibrate invalidates every probe-calibrated bucket's operating
// point at virtual time now: the span accrued under the old point is
// settled, and accrual from now on is pending until a probe donates a
// fresh measurement (or settle-time fallback covers it). Imposed
// buckets keep their draw — the caller owns it.
func (p *GroupPool) Recalibrate(now time.Duration) {
	for _, b := range p.order {
		if b.imposed || !b.calibrated {
			continue
		}
		b.flush(p, now)
		b.calibrated = false
		b.calN = 0
	}
}

// Count returns the bucket's current member count (0 if absent).
func (p *GroupPool) Count(key GroupKey) int {
	if b, ok := p.buckets[key]; ok {
		return b.count
	}
	return 0
}

// Calibrated reports whether the bucket has a measured operating point.
func (p *GroupPool) Calibrated(key GroupKey) bool {
	b, ok := p.buckets[key]
	return ok && b.calibrated
}

// Op returns the bucket's calibrated per-lane draw; meaningful only
// when Calibrated.
func (p *GroupPool) Op(key GroupKey) float64 {
	if b, ok := p.buckets[key]; ok {
		return b.op
	}
	return 0
}

// Calibrate folds one measured per-lane draw into the bucket. The first
// measurement converts every pending span into backfill owed to the
// caller's interval accounting and starts live accrual; later
// measurements refine the operating point as a running mean (settling
// the span accrued under the previous value first) and return nil.
func (p *GroupPool) Calibrate(key GroupKey, watts float64, now time.Duration) []BackfillSpan {
	if watts < 0 {
		panic(fmt.Sprintf("meso: bucket %v calibrated to negative draw %v", key, watts))
	}
	b := p.bucket(key)
	b.flush(p, now)
	if b.calibrated {
		b.calN++
		b.op += (watts - b.op) / float64(b.calN)
		b.open(p)
		return nil
	}
	b.calibrated = true
	b.op = watts
	b.calN = 1
	b.open(p)
	if len(b.pend) == 0 {
		return nil
	}
	// Backfill energy is owed to the CALLER's interval accounting, not
	// this ledger: EnergyJ must stay smooth in now (a settledJ lump here
	// would double-count against the amended intervals and spike any
	// sliding-window probe reading it).
	out := make([]BackfillSpan, 0, len(b.pend))
	for _, s := range b.pend {
		j := watts * float64(s.count) * (s.to - s.from).Seconds()
		out = append(out, BackfillSpan{From: s.from, To: s.to, Joules: j})
	}
	b.pend = nil
	return out
}

// Has reports whether the bucket exists (was ever given members).
func (p *GroupPool) Has(key GroupKey) bool {
	_, ok := p.buckets[key]
	return ok
}

// Members returns the current member count across all buckets — parked
// lanes and virtual cohort members alike.
func (p *GroupPool) Members() int { return p.members }

// Buckets returns how many distinct cohort buckets exist (ever
// created); lane buckets (LaneKey) are not counted.
func (p *GroupPool) Buckets() int {
	n := 0
	for _, b := range p.order {
		if b.key.Cohort >= 0 {
			n++
		}
	}
	return n
}

// EnergyJ returns the energy the pool accounts up to now: settled spans
// plus live accrual of calibrated buckets. Pending (uncalibrated) spans
// are excluded until Calibrate converts them to backfill. now must be at
// or after every live span start (virtual time is monotone, so any
// caller reading the engine clock satisfies this); the value is then
// smooth and monotone in now — safe to feed a sliding-window cap probe.
// O(1).
func (p *GroupPool) EnergyJ(now time.Duration) float64 {
	return p.settledJ + p.sumW*now.Seconds() - p.offsetJ
}

// SettleIO integrates every cohort's virtual IO through now and returns
// the total synthetic counts accrued since the last call. Map iteration
// order is irrelevant: cohorts integrate independently and the results
// are summed.
func (p *GroupPool) SettleIO(now time.Duration) (ios, bytes int64) {
	for _, c := range p.cohorts {
		c.accrue(p.rateIOPS, now)
		ios += c.ios
		c.ios = 0
	}
	return ios, ios * p.bytesPerIO
}
