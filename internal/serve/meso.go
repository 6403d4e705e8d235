package serve

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"wattio/internal/device"
	"wattio/internal/meso"
	"wattio/internal/telemetry/invariant"
)

// The mesoscale aggregation tier lets a shard stop simulating lanes
// that have settled into a steady operating point. The tier moves a
// lane through the meso states of its one state machine (lane.state):
//
//	hydrated --(steady for mesoDwellPeriods)--> draining
//	draining --(in-flight and queue empty)----> idling | parked
//	idling   --(one quiesced period measured)-> parked
//	parked   --(budget step / sentinel / end)-> hydrated
//
// Everything the aggregate needs is calibrated from the lane's own
// mechanistic history on this run — the draw over its last steady
// control period, and the quiesced draw of its devices in their held
// power states (cached per power-state fingerprint, so repeated parks
// skip the idling phase). While parked, the lane is a bucket of one in
// the shard's ledger (meso.GroupPool), which accounts only the dynamic
// delta above the devices' lazy meters — they keep accruing exact idle
// energy — and the synthetic IO counts, which settle into the serving
// counters once, at the horizon. Parked lanes produce no latency
// samples — the merged quantiles describe the mechanistic population.
//
// All decisions ride the shard's own interval timer and virtual clock,
// so the tier cannot perturb the determinism contract: reports are
// bit-identical at any host parallelism. The tier exists in every
// shard; with Spec.Meso off it bars every lane at enrollment, so no
// lane is ever tracked, drained or parked, and the tier reads no meter.

const (
	// mesoSentinelEvery is the sentinel cadence in control periods:
	// every so many ticks one parked lane per shard rehydrates, re-serves
	// real traffic, and its freshly re-measured draw is compared against
	// the aggregate's calibrated operating point (the drift probe).
	mesoSentinelEvery = 8
	// mesoDwellPeriods is how many consecutive steady control periods a
	// lane must show before it dehydrates.
	mesoDwellPeriods = 2
	// mesoDriftTolFrac bounds how far a sentinel re-measurement may
	// disagree with the aggregate's calibrated draw before the lane is
	// barred from parking again (and the report's MesoDriftOK trips).
	// It sits well above the few percent of Poisson arrival noise a
	// dwell-window average carries, and well below the shifts that
	// matter: a rate change, a fault onset, or a re-plan moves a lane's
	// draw far more than 10%.
	mesoDriftTolFrac = 0.10
)

// mesoLane is one lane's meso-tier bookkeeping (lane.ml); the lane's
// phase in the tier is lane.state.
type mesoLane struct {
	// barred lanes never park again: the tier is off (Spec.Meso unset),
	// or a sentinel re-measurement drifted beyond tolerance, so the
	// aggregate's model of this lane cannot be trusted for the rest of
	// the run. The tier keeps no baseline for a barred lane, so it reads
	// none of its meters. barredUntil bars a lane only until a known
	// transient ends — a fault-injected lane until its last window
	// closes (calibrating across a dropout would be a lie, but a
	// drained-back lane is just a lane again), a churned lane until its
	// warm-up completes. Neither transient bars forever: no member is a
	// permanently forced resident.
	barred      bool
	barredUntil time.Duration
	dwell       int

	// prevE/prevT are the lane's device energy baseline and the time it
	// was taken — the last tick, or the rehydration instant for a lane
	// that just returned mid-period. Period draws divide by the real
	// elapsed time, never by an assumed control period.
	prevE   float64
	prevT   time.Duration
	steadyW float64 // average draw over the last steady dwell window

	// Dwell window baseline: lane energy and time when the current
	// steady streak began. Calibrating over the whole window instead of
	// one period keeps Poisson arrival noise out of the operating point
	// (a single 100 ms period at a few thousand IOPS carries several
	// percent of count noise).
	dwellE float64
	dwellT time.Duration

	// Steadiness fingerprint snapshots from the last tick.
	rejected         int64
	states           []int
	failovers, wakes int

	// Idle calibration: measurement window start, and the cache of
	// measured quiesced draw keyed by power-state fingerprint.
	idleStartE float64
	idleStartT time.Duration
	idleW      map[string]float64

	// pendingPredW is the calibrated draw a sentinel rehydration must
	// be compared against at the next recalibration; <0 when none.
	pendingPredW float64
}

type mesoState struct {
	s      *shard
	drift  invariant.DriftProbe
	ticks  int
	cursor int // sentinel rotation position
	done   bool
}

func newMeso(s *shard) *mesoState {
	m := &mesoState{s: s}
	for _, l := range s.lanes {
		m.addLane(l, l.faultEnd)
	}
	return m
}

// addLane brings lane l under the tier, hydrated, with its steadiness
// baselines taken now. It stays barred from parking until barredUntil:
// a fault-injected lane until its last fault window closes, a lane
// admitted mid-run by a churn epoch until its warm-up completes (an
// idle warming lane looks steady but has no operating point worth
// calibrating). With Spec.Meso off the lane is barred for the whole
// run and needs no baseline at all.
func (m *mesoState) addLane(l *lane, barredUntil time.Duration) {
	ml := &l.ml
	if ml.barred = !m.s.spec.Meso; ml.barred {
		return
	}
	ml.barredUntil = barredUntil
	ml.states = make([]int, m.s.spec.Replicas)
	ml.idleW = make(map[string]float64)
	ml.pendingPredW = -1
	ml.prevE, ml.prevT = laneEnergy(l), m.s.eng.Now()
	m.snapshot(l)
}

// resetBaseline restarts lane l's steadiness tracking from the current
// instant — called when its traffic regime changes discontinuously (a
// churned lane's arrivals starting at warm-up, a rate step), so a dwell
// accumulated under the old regime never calibrates the new one. A
// barred lane never parks again and keeps no baseline.
func (m *mesoState) resetBaseline(l *lane) {
	ml := &l.ml
	if ml.barred {
		return
	}
	ml.dwell = 0
	ml.prevE, ml.prevT = laneEnergy(l), m.s.eng.Now()
	m.snapshot(l)
}

func laneEnergy(l *lane) float64 {
	var e float64
	for _, d := range l.devs {
		e += d.EnergyJ()
	}
	return e
}

// stateKey is the lane's power-state fingerprint, the cache key for
// measured idle draw: the same devices in the same states quiesce to
// the same draw.
func stateKey(l *lane) string {
	var b strings.Builder
	for _, d := range l.devs {
		b.WriteString(strconv.Itoa(d.PowerStateIndex()))
		b.WriteByte('.')
	}
	return b.String()
}

// snapshot refreshes the lane's steadiness fingerprint baselines.
func (m *mesoState) snapshot(l *lane) {
	ml := &l.ml
	ml.rejected = l.rejected
	if l.redir != nil {
		ml.failovers, ml.wakes = l.redir.Failovers, l.redir.WakesOnDemand
	}
	for rep, d := range l.devs {
		ml.states[rep] = d.PowerStateIndex()
	}
}

// steady checks (and refreshes) the lane's fingerprint: no rejections,
// no failovers or on-demand wakes, settled healthy devices holding
// their power states, and a queue no deeper than one dispatch batch.
func (m *mesoState) steady(l *lane) bool {
	ml := &l.ml
	ok := l.qlen() <= dispatchBatch
	if l.rejected != ml.rejected {
		ok = false
		ml.rejected = l.rejected
	}
	if rd := l.redir; rd != nil {
		if rd.Failovers != ml.failovers || rd.WakesOnDemand != ml.wakes {
			ok = false
			ml.failovers, ml.wakes = rd.Failovers, rd.WakesOnDemand
		}
	}
	for rep, d := range l.devs {
		if !device.Healthy(d) || !d.Settled() {
			ok = false
		}
		if idx := d.PowerStateIndex(); idx != ml.states[rep] {
			ok = false
			ml.states[rep] = idx
		}
	}
	return ok
}

// tick runs the tier's per-control-period pass, after the closing
// interval's energy is recorded.
func (m *mesoState) tick() {
	if m.done {
		return
	}
	s := m.s
	now := s.eng.Now()
	m.ticks++
	atEnd := now >= s.spec.Horizon
	// Parked lanes and virtual cohort members are served analytically
	// this period — one O(1) read, however many the ledger holds.
	s.res.MesoParkedPeriods += s.ledger.Members()
	for _, l := range s.lanes {
		if l.gone() || l.state == laneParked || l.ml.barred {
			continue
		}
		ml := &l.ml
		e := laneEnergy(l)
		prev, prevT := ml.prevE, ml.prevT
		ml.prevE, ml.prevT = e, now
		switch l.state {
		case laneHydrated:
			if now <= prevT {
				// The lane rehydrated at this very tick (a co-timed
				// budget step): no time has passed, there is no period
				// to judge.
				break
			}
			if m.steady(l) {
				if ml.dwell == 0 {
					ml.dwellE, ml.dwellT = prev, prevT
				}
				ml.dwell++
			} else {
				ml.dwell = 0
			}
			if ml.barredUntil > 0 && now >= ml.barredUntil && l.qlen() == 0 {
				// The transient is over and the lane has caught up — a
				// dropout releases its held IOs all at once, and the
				// backlog drain draws more than the steady regime, so
				// the bar lifts only at the first clean (empty-queue)
				// boundary and the dwell restarts from it.
				ml.barredUntil = 0
				ml.dwell = 0
			}
			if !atEnd && !ml.barred && ml.barredUntil == 0 && ml.dwell >= mesoDwellPeriods {
				m.beginDrain(l, e, now)
			}
		case laneDraining:
			// Waiting on in-flight IO; laneQuiet advances the phase.
		case laneIdling:
			if ml.idleStartT < 0 {
				// First boundary after the drain completed: the residual
				// power decay of the last IOs has flushed, start the
				// quiesced measurement window here.
				ml.idleStartE = e
				ml.idleStartT = now
			} else if dt := now - ml.idleStartT; dt > 0 {
				idleW := (e - ml.idleStartE) / dt.Seconds()
				ml.idleW[stateKey(l)] = idleW
				m.park(l, now, idleW)
			}
		}
	}
	if !atEnd && m.ticks%mesoSentinelEvery == 0 {
		m.sentinel(now)
	}
}

// beginDrain starts dehydration: the draw averaged over the steady
// dwell window is the aggregate's calibration (and the verdict on any
// pending sentinel comparison), arrivals stop, and the lane drains its
// in-flight IO.
func (m *mesoState) beginDrain(l *lane, e float64, now time.Duration) {
	ml := &l.ml
	w := (e - ml.dwellE) / (now - ml.dwellT).Seconds()
	ml.steadyW = w
	if ml.pendingPredW >= 0 {
		frac := m.drift.Observe(ml.pendingPredW, w)
		ml.pendingPredW = -1
		if frac > mesoDriftTolFrac {
			// The aggregate's model of this lane was wrong: keep the
			// lane mechanistic for the rest of the run.
			ml.barred = true
			return
		}
	}
	if l.arr != nil {
		l.arr.Stop()
	}
	l.state = laneDraining
	m.laneQuiet(l)
}

// laneQuiet advances a draining lane the moment its last in-flight IO
// completes: governors stop so the devices hold their states, and the
// lane either parks directly (idle draw cached for this power-state
// fingerprint) or enters the idling measurement.
func (m *mesoState) laneQuiet(l *lane) {
	if m.done {
		return
	}
	if l.state != laneDraining || l.inflight != 0 || l.qlen() != 0 {
		return
	}
	for _, g := range l.govs {
		g.Stop()
	}
	if w, ok := l.ml.idleW[stateKey(l)]; ok {
		m.park(l, m.s.eng.Now(), w)
		return
	}
	l.state = laneIdling
	l.ml.idleStartT = -1
}

// park dehydrates lane l onto its bucket of one in the shard's ledger.
// The bucket's imposed draw is the lane's dynamic draw above the idle
// its meters keep accruing, clamped non-negative (a measured idle above
// the serving draw must not make energy run backward); its IO accrues
// at the ledger's rate, which is the lane's offered rate.
func (m *mesoState) park(l *lane, now time.Duration, idleW float64) {
	s := m.s
	s.ledger.Impose(meso.LaneKey(l.idx), 1, max(l.ml.steadyW-idleW, 0), true, now)
	l.state = laneParked
	s.res.MesoDehydrations++
	// A parking probe's measured draw calibrates its cohort bucket.
	s.grp.probeParked(l, l.ml.steadyW, now, &m.drift)
}

// rehydrate returns lane l from the analytic tier to mechanistic
// serving; a hydrated or departing lane is left alone. A parked lane
// settles its bucket's closed-form energy into the shard result (the
// span's IO stays in the lane's cohort until settle). With restart, the
// lane resumes serving: governors stopped at quiesce restart their
// control loops, the arrival process continues on the lane's retained
// RNG stream for the remaining horizon, and the steadiness baseline is
// retaken. Without it — retirement, or the horizon — the lane only
// returns to hydrated, its serving already stopped.
func (m *mesoState) rehydrate(l *lane, now time.Duration, restart bool) {
	s := m.s
	from := l.state
	switch from {
	case laneParked:
		s.res.MesoAggJ += s.ledger.Impose(meso.LaneKey(l.idx), 0, 0, true, now)
		s.res.MesoRehydrations++
	case laneDraining, laneIdling:
	default:
		return
	}
	l.state = laneHydrated
	l.ml.dwell = 0
	if !restart {
		return
	}
	if from != laneDraining {
		for _, g := range l.govs {
			g.Start()
		}
	}
	if err := s.startLaneArrivals(l); err != nil {
		// Inputs were validated when the lane first started; a
		// failure here is a programming error, not a spec error.
		panic(fmt.Sprintf("serve: meso rehydration of lane %d: %v", l.idx, err))
	}
	l.ml.prevE, l.ml.prevT = laneEnergy(l), now
	m.snapshot(l)
}

// sentinel rehydrates the next parked lane in rotation for a ground
// truth check: it re-serves real traffic through a full dwell (so the
// queue ramp of the first period after restart never pollutes the
// measurement), and when it re-qualifies to park, the fresh
// calibration is compared against the aggregate's prediction.
func (m *mesoState) sentinel(now time.Duration) {
	lanes := m.s.lanes
	for k := 0; k < len(lanes); k++ {
		l := lanes[m.cursor]
		m.cursor = (m.cursor + 1) % len(lanes)
		if l.state == laneParked {
			// A parked lane's steadyW is the draw it was calibrated at.
			m.rehydrate(l, now, true)
			l.ml.pendingPredW = l.ml.steadyW
			return
		}
	}
}

// rehydrateAll returns every lane to mechanistic simulation, called by
// postControl just before a control transition re-plans the shard or
// reshapes its load. Comparisons pending across the transition are
// dropped: the operating point legitimately changes with the plan.
func (m *mesoState) rehydrateAll() {
	if m.done {
		return
	}
	s := m.s
	now := s.eng.Now()
	for _, l := range s.lanes {
		m.rehydrate(l, now, true)
		l.ml.pendingPredW = -1
	}
}

// settle closes the tier at the horizon: every parked lane's span is
// settled through the full horizon without restarting serving, the
// ledger's synthetic IO settles into the serving counters, and the
// drift verdict lands in the shard result.
func (m *mesoState) settle() {
	s := m.s
	now := s.eng.Now()
	for _, l := range s.lanes {
		m.rehydrate(l, now, false)
	}
	s.grp.settle(now)
	ios, bytes := s.ledger.SettleIO(now)
	s.res.Offered += ios
	s.res.Admitted += ios
	s.res.Completed += ios
	s.res.BytesCompleted += bytes
	m.done = true
	s.res.MesoWorstDriftFrac = m.drift.WorstFrac()
	s.res.MesoDriftOK = m.drift.Check(mesoDriftTolFrac) == nil
}
