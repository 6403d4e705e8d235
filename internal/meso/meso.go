// Package meso is the analytic half of the mesoscale aggregation tier:
// closed-form stand-ins for replica groups that have settled into a
// steady operating point and no longer need event-by-event simulation.
//
// The serving engine (internal/serve) watches each lane for a steady
// fingerprint — no rejections, no failovers, settled power states, a
// near-empty queue — and after a dwell threshold calibrates the lane's
// operating point from its own mechanistic history: the measured draw
// over the last steady control period, and the measured quiesced draw
// of the same devices in the same power states. The lane then parks
// here. While parked, the devices still exist and their lazy energy
// meters keep accruing exact idle energy, so the ledger accounts only
// the calibrated *dynamic* delta (PowerW − IdleW) and the synthetic IO
// counts; nothing is double-counted. Unparking settles the closed-form
// totals back into the mechanistic ledgers.
//
// There is one ledger, GroupPool (group.go): a parked lane is a bucket
// of one in it, beside the cohort buckets of group-level parking. Pool
// is a thin per-lane façade over it.
//
// Everything here is pure arithmetic on virtual time — no engine, no
// RNG — so a parked lane costs zero kernel events and the tier cannot
// perturb determinism: for a fixed spec the settlements are identical
// at any host parallelism.
package meso

import (
	"fmt"
	"time"
)

// OperatingPoint is the calibrated steady state a parked lane is
// assumed to hold: its total electrical draw while serving, the draw
// its quiesced devices keep accruing mechanistically, and the offered
// load it absorbs.
type OperatingPoint struct {
	// PowerW is the lane's calibrated total draw at the operating
	// point, measured over its last steady control period.
	PowerW float64
	// IdleW is the draw the lane's devices accrue through their own
	// meters while parked (awake-idle in their held power states),
	// measured over a quiesced period. The Pool accounts the dynamic
	// difference PowerW − IdleW; the meters keep the rest.
	IdleW float64
	// RateIOPS is the lane's offered arrival rate; parked spans credit
	// IO counts at exactly this rate.
	RateIOPS float64
	// BytesPerIO converts synthetic IO counts to bytes.
	BytesPerIO int64
}

// dynW is the dynamic draw the pool accounts above the meters,
// clamped non-negative: a calibration quirk (measured idle above
// measured serving draw) must not make energy run backward.
func (op OperatingPoint) dynW() float64 {
	if d := op.PowerW - op.IdleW; d > 0 {
		return d
	}
	return 0
}

// Settlement is what one parked span owes the mechanistic ledgers when
// the lane rehydrates: synthetic IO counts at the operating point's
// rate, the bytes they moved, and the dynamic energy above idle.
type Settlement struct {
	IOs   int64
	Bytes int64
	// DynJ is the dynamic energy (above the meters' idle accrual) the
	// span consumed.
	DynJ float64
	// Dur is the span's length.
	Dur time.Duration
	// PredictedW is the operating point's total draw — what a sentinel
	// re-measurement compares its fresh mechanistic reading against.
	PredictedW float64
}

// Pool is the per-lane view of the ledger: lane i parks as its bucket
// of one (LaneKey) in a GroupPool, at the dynamic draw of its operating
// point, and unparking settles the span. All accounting lives in the
// GroupPool. Lanes share its pool-wide IO rate, as every lane of a
// shard does: parking at a new RateIOPS moves the rate of every parked
// lane from then on. It is not safe for concurrent use; shards are
// single-threaded by construction.
type Pool struct {
	g   *GroupPool
	ops []OperatingPoint
}

// NewPool returns a pool for n lanes, all hydrated.
func NewPool(n int) *Pool {
	return &Pool{g: NewGroupPool(0, 0), ops: make([]OperatingPoint, n)}
}

// Park dehydrates lane i at virtual time now onto the given operating
// point. The lane must not already be parked.
func (p *Pool) Park(i int, op OperatingPoint, now time.Duration) {
	if p.Parked(i) {
		panic(fmt.Sprintf("meso: lane %d parked twice", i))
	}
	if op.RateIOPS != p.g.rateIOPS {
		p.g.SetRate(op.RateIOPS, now)
	}
	p.ops[i] = op
	p.g.Impose(LaneKey(i), 1, op.dynW(), true, now)
}

// Unpark rehydrates lane i at virtual time now and returns the span's
// settlement. The lane must be parked and now must not precede its
// park time.
func (p *Pool) Unpark(i int, now time.Duration) Settlement {
	key := LaneKey(i)
	b, ok := p.g.buckets[key]
	if !ok || b.count == 0 {
		panic(fmt.Sprintf("meso: lane %d unparked while hydrated", i))
	}
	if now < b.since {
		panic(fmt.Sprintf("meso: lane %d unparked at %v, before its park time %v", i, now, b.since))
	}
	dur := now - b.since
	dynJ := p.g.Impose(key, 0, 0, true, now)
	c := p.g.cohorts[key.Cohort]
	ios := c.ios
	c.ios = 0
	op := p.ops[i]
	return Settlement{
		IOs:        ios,
		Bytes:      ios * op.BytesPerIO,
		DynJ:       dynJ,
		Dur:        dur,
		PredictedW: op.PowerW,
	}
}

// Parked reports whether lane i is currently parked.
func (p *Pool) Parked(i int) bool { return p.g.Count(LaneKey(i)) > 0 }

// DynEnergyJ returns the total dynamic energy the pool accounts up to
// virtual time now: settled spans plus the live accrual of every
// currently-parked lane (see GroupPool.EnergyJ).
func (p *Pool) DynEnergyJ(now time.Duration) float64 { return p.g.EnergyJ(now) }
