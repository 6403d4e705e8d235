package serve

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"wattio/internal/adaptive"
	"wattio/internal/device"
	"wattio/internal/fault"
	"wattio/internal/meso"
	"wattio/internal/sim"
	"wattio/internal/telemetry/invariant"
	"wattio/internal/workload"
)

// govGuard is the slack factor between a device's planned draw and its
// governor budget: wide enough that the feedback loop does not fight
// the model-based plan under normal draw, tight enough to catch a
// device running meaningfully hotter than its model says.
const govGuard = 1.10

// shardRange is one shard's contiguous slice of replica groups.
type shardRange struct{ g0, g1 int }

// shardResult is everything a shard contributes to the merged report:
// the shard's own counters and flags in the Report's fields, which
// merge folds in shard order, plus the samples merge needs whole.
// SimulatedDur is the shard engine's clock after the post-horizon
// drain: the horizon, or later when held IO (a dropout window) released
// and completed past it.
type shardResult struct {
	Report
	// Latencies logs every completed request's latency until the drain
	// ends. It is held by value: a pointer into the shard would keep the
	// finished shard reachable (see the end of runShard).
	Latencies             latLog
	IntervalEnergyJ       []float64
	WarmupLats, DrainLats []time.Duration
}

// shard is one independent simulation: a slice of the fleet with its
// own engine, control plane, and request scheduler.
type shard struct {
	spec *Spec
	eng  *sim.Engine
	res  shardResult

	// lanes is ascending in group number (see laneOf).
	lanes []*lane
	meso  *mesoState
	// grp is the shard's cohorts and their planner, in every tier.
	grp *groupState
	// ledger accounts every analytically served member at its operating
	// point: parked meso lanes (buckets of one) and virtual cohort
	// members alike. It exists in every tier and stays empty in plain
	// mode.
	ledger *meso.GroupPool

	// devTotal is the shard's full device count including virtual group
	// members; budget slices and cap bounds scale by it, not by the
	// materialized device count, which equals it with no virtual member.
	devTotal int
	// liveDevs/fleetLive are the shard's and the fleet's live device
	// counts — the budget-slice ratio. Equal to devTotal and Spec.Size
	// until a churn epoch moves them.
	liveDevs, fleetLive int

	// laneRates is the per-lane arrival schedule (Spec.Rates scaled by
	// the serving replicas per group); retiredJ is the frozen meters of
	// retired devices (see lifecycle.go).
	laneRates []workload.RateStep
	retiredJ  float64

	inflight int
	stopped  bool
	prevE    float64
	// ivCarry holds group-tier backfill energy owed to the in-progress
	// control interval; intervalTick folds and clears it.
	ivCarry float64

	// Interval energy accounting rides on one rescheduled timer instead
	// of a build-time event per interval.
	ivIdx   int
	ivTimer *sim.Timer

	// freeDone pools per-request completion records across the shard's
	// lanes; the pool never grows past the shard's total in-flight depth.
	freeDone *laneDone
}

// EnergyJ is the shard's aggregate device energy — mechanistic meters
// plus the ledger's accrual for parked lanes and virtual members — so
// the sliding-window cap probe and interval accounting cover the
// analytic population too.
func (s *shard) EnergyJ() float64 {
	// Retired devices stop drawing: their meters were frozen into
	// retiredJ at retirement, so the sum stays continuous there and
	// monotone throughout.
	sum := s.retiredJ
	for _, l := range s.lanes {
		if l.state == laneRemoved {
			continue
		}
		for _, d := range l.devs {
			sum += d.EnergyJ()
		}
	}
	return sum + s.ledger.EnergyJ(s.eng.Now())
}

// laneOf returns the lane of global replica group g, nil when g is not
// materialized in this shard. s.lanes is ascending in group number:
// build-time groups are sorted, and buildGroup refuses a group numbered
// at or below the last lane's.
func (s *shard) laneOf(g int) *lane {
	i, ok := slices.BinarySearchFunc(s.lanes, g, func(l *lane, g int) int { return l.g - g })
	if !ok {
		return nil
	}
	return s.lanes[i]
}

// lane is one replica group's request scheduler — an admission-bounded
// FIFO queue in front of a device (or a Redirector over its replicas),
// dispatched in batches up to the group's depth limit — and the one
// record of everything else the shard tracks per replica group: its
// replicas and their governors, planned draw, arrival process, fault
// span, lifecycle state, and tier bookkeeping.
type lane struct {
	sh   *shard
	idx  int
	g    int // global replica-group number
	pi   int // profile index: the group tier's cohort id
	dev  device.Device
	rng  *sim.RNG
	span int64

	// devs are the group's replicas, wrapped with fault where drawn;
	// redir is the Redirector over them when mirrored (dev), else nil.
	// govs are their governors in replica order, one per device with
	// selectable power states. planW is each replica's planned draw under
	// the shard's current plan — its cohort's ladder level — and, times
	// govGuard, its governor's target; the profile's maximum planning
	// draw until a plan lands.
	devs  []device.Device
	redir *adaptive.Redirector
	govs  []*adaptive.Governor
	planW float64

	queue    []time.Duration // admission timestamps
	head     int
	inflight int
	// rejected mirrors the shard-wide counter per lane, for the
	// mesoscale steadiness fingerprint.
	rejected int64

	// astream is the lane's arrival stream, retained so a restart (meso
	// rehydration, churn warm-up) continues the sequence instead of
	// replaying it from its seed; arr is the running arrival process,
	// nil until first started.
	astream *sim.RNG
	arr     *workload.Arrivals
	// faultEnd is the end of the lane's last injected fault window, zero
	// when unfaulted (fault.New rejects windows of non-positive length).
	faultEnd time.Duration

	state laneState
	// warmPending marks a churned lane whose first completion records
	// its warm-up recovery latency, measured from its admission at
	// warmFrom; drainFrom is when a removing lane stopped arrivals.
	warmPending         bool
	warmFrom, drainFrom time.Duration

	ml    mesoLane // meso-tier bookkeeping (barred for the run unless Spec.Meso)
	level int      // group tier: the lane's current ladder index
}

// laneState is a lane's place in its one state machine. The meso tier
// (meso.go) cycles a live lane
//
//	hydrated -> draining -> idling -> parked -> hydrated
//
// (draining skips idling when the lane's idle draw is cached), and
// churn (lifecycle.go) ends it: removing -> removed. A lane leaves the
// meso cycle in the same call that marks it removing, so the two never
// overlap.
type laneState uint8

const (
	laneHydrated laneState = iota // served by the event kernel
	laneDraining                  // meso: arrivals stopped, in-flight IO finishing
	laneIdling                    // meso: quiesced, measuring its idle draw
	laneParked                    // meso: accounted by the shard's ledger
	laneRemoving                  // churn: arrivals stopped, serving out its work
	laneRemoved                   // churn: retired, meters frozen
)

// gone reports whether the lane has left the serving set (removing or
// removed): plans and the meso tier skip it.
func (l *lane) gone() bool { return l.state >= laneRemoving }

func (l *lane) qlen() int { return len(l.queue) - l.head }

// arrive handles one open-loop arrival: admit into the queue or reject
// when the queue is at capacity.
func (l *lane) arrive() {
	s := l.sh
	s.res.Offered++
	if l.qlen() >= queueCap {
		s.res.Rejected++
		l.rejected++
		return
	}
	s.res.Admitted++
	l.queue = append(l.queue, s.eng.Now())
	l.dispatch()
}

func (l *lane) pop() time.Duration {
	at := l.queue[l.head]
	l.head++
	// An emptied queue restarts at the front of its backing array, so a
	// lane keeping up with its load never grows the queue; a backlog
	// compacts once its consumed half is large.
	if l.head == len(l.queue) {
		l.queue, l.head = l.queue[:0], 0
	} else if l.head > 1024 && l.head*2 >= len(l.queue) {
		l.queue = append(l.queue[:0], l.queue[l.head:]...)
		l.head = 0
	}
	return at
}

// dispatch submits queued requests in batches. A group fires when a
// full batch of depth slots is free or when the whole remaining queue
// fits — so a loaded lane coalesces submissions into dispatchBatch-sized
// bursts (amortizing per-doorbell work, as a real frontend would)
// while a lightly loaded lane dispatches immediately with no added
// latency.
func (l *lane) dispatch() {
	s := l.sh
	if s.stopped {
		return
	}
	for {
		free, q := laneDepth-l.inflight, l.qlen()
		if q == 0 || free == 0 || (free < dispatchBatch && q > free) {
			return
		}
		n := dispatchBatch
		if free < n {
			n = free
		}
		if q < n {
			n = q
		}
		s.res.Batches++
		for i := 0; i < n; i++ {
			l.submit(l.pop())
		}
	}
}

// laneDone is one in-flight request's completion record, pooled on the
// shard so steady-state serving submits without allocating: the closure
// handed to the device is built once per record and only its captured
// fields change between reuses.
type laneDone struct {
	l        *lane
	admitted time.Duration
	fn       func()
	next     *laneDone
}

func (d *laneDone) run() {
	// Copy out and recycle first: the dispatch below may pick this very
	// record up for the replacement request.
	l, admitted := d.l, d.admitted
	s := l.sh
	d.next = s.freeDone
	s.freeDone = d
	now := s.eng.Now()
	l.inflight--
	s.inflight--
	s.res.Completed++
	s.res.BytesCompleted += chunkBytes
	// Latency is measured from admission, so queue wait under a
	// curtailed budget is part of the serving tail, as it would be
	// for a real frontend.
	s.res.Latencies.add(now - admitted)
	l.dispatch()
	if l.warmPending || l.state == laneRemoving {
		s.laneCompleted(l, now)
	}
	if l.state == laneDraining {
		s.meso.laneQuiet(l)
	}
}

// Latency log chunk sizes: the first chunk is small, because a shard
// of a group-parked fleet serves only a few probe IOs, and each later
// chunk doubles up to the cap.
const (
	latChunkMin = 64
	latChunkMax = 8192
)

// latLog is an append-only, unsorted log of request latencies. It grows
// by adding chunks, never by copying one. A chunk entry is a uint32 of
// nanoseconds, which holds any latency under 2^32 ns (4.29 s); a longer
// one goes to big, so the log stays exact at half the bytes of a
// time.Duration. merge selects the ranks it reports from the logs as
// they are (see latRanks).
type latLog struct {
	full [][]uint32      // filled chunks, in order
	cur  []uint32        // the chunk being filled
	big  []time.Duration // latencies of 2^32 ns or more
	n    int             // entries in the chunks and big together
}

// add logs d, which must not be negative.
func (g *latLog) add(d time.Duration) {
	g.n++
	if d >= 1<<32 {
		g.big = append(g.big, d)
		return
	}
	if len(g.cur) == cap(g.cur) {
		if g.cur != nil {
			g.full = append(g.full, g.cur)
		}
		g.cur = make([]uint32, 0, min(max(2*cap(g.cur), latChunkMin), latChunkMax))
	}
	g.cur = append(g.cur, uint32(d))
}

func (l *lane) submit(admitted time.Duration) {
	s := l.sh
	l.inflight++
	s.inflight++
	off := l.rng.Int64N(l.span/chunkBytes) * chunkBytes
	req := device.Request{Op: device.OpWrite, Offset: off, Size: chunkBytes}
	d := s.freeDone
	if d == nil {
		d = &laneDone{}
		d.fn = d.run
	} else {
		s.freeDone = d.next
	}
	d.l, d.admitted = l, admitted
	l.dev.Submit(req, d.fn)
}

// retarget points every governor at its lane's planned draw.
func (s *shard) retarget() {
	for _, l := range s.lanes {
		for _, gv := range l.govs {
			gv.SetBudget(l.planW * govGuard)
		}
	}
}

// intervalBoundary is the virtual time interval k's accounting fires,
// clamped to the horizon for the final partial interval.
func (s *shard) intervalBoundary(k int) time.Duration {
	t := time.Duration(k) * s.spec.ControlPeriod
	if t > s.spec.Horizon {
		t = s.spec.Horizon
	}
	return t
}

func (s *shard) intervalTick() {
	e := s.EnergyJ()
	s.res.IntervalEnergyJ[s.ivIdx] = e - s.prevE + s.ivCarry
	s.ivCarry = 0
	s.prevE = e
	s.ivIdx++
	// The mesoscale tier rides the same boundary walk: steadiness
	// fingerprints, calibration, and sentinel rotation all happen after
	// the closing interval's energy is recorded. When every lane is
	// parked this timer is the shard's heartbeat — the engine always has
	// an event to carry virtual time to the horizon.
	s.meso.tick()
	if s.ivIdx < len(s.res.IntervalEnergyJ) {
		s.ivTimer.Reschedule(s.intervalBoundary(s.ivIdx + 1))
	}
}

// runShard builds and runs one shard to completion. ch is the shard's
// compiled churn timeline (nil when the spec has none). Every error
// names the shard, and a panic on the shard's goroutine comes back as
// one that also names the virtual time it struck at.
func runShard(sp *Spec, idx int, rg shardRange, ch *shardChurn) (res *shardResult, err error) {
	eng := sim.NewEngine()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic at virtual time %v: %v", eng.Now(), r)
		}
		if err != nil {
			res, err = nil, fmt.Errorf("shard %d: %w", idx, err)
		}
	}()
	rng := sim.NewRNG(sp.Seed ^ shardHash("serve/shard", idx))
	frng := sim.NewRNG(sp.FaultSeed ^ shardHash("serve/fault", idx))
	s := &shard{spec: sp, eng: eng}
	s.res.CapOK = true
	s.devTotal = (rg.g1 - rg.g0) * sp.Replicas
	s.liveDevs, s.fleetLive = s.devTotal, sp.Size
	s.laneRates = make([]workload.RateStep, len(sp.Rates))
	for i, rs := range sp.Rates {
		s.laneRates[i] = workload.RateStep{At: rs.At, IOPS: rs.IOPS * float64(sp.active())}
	}
	s.ledger = meso.NewGroupPool(s.laneRates[0].IOPS, chunkBytes)

	// Build devices, replica groups, and lanes. Every member's fault
	// outcome is drawn first, in ascending instance order (the one
	// per-member pass, and only when the spec injects faults);
	// planGroups then decides residency per cohort and only resident
	// groups materialize, so virtual members cost no device state at all.
	pre := drawFaults(sp, frng, rg)
	s.grp = planGroups(s, rg, pre)
	P := len(sp.Profiles)
	for _, g := range s.grp.buildGroups {
		if _, err := s.buildGroup(g, g%P, rng, pre); err != nil {
			return nil, err
		}
	}

	// Initial plan, then one governor per device with selectable power
	// states, targeted at its planned draw.
	s.replanLive()
	for _, l := range s.lanes {
		if err := s.startGovernors(l); err != nil {
			return nil, err
		}
	}

	// Control transitions, each through postControl: budget steps, then
	// rate-schedule boundaries and churn epochs, so at a shared instant
	// the new budget is already in force when the boundary or epoch
	// re-plans. Warm events for earlier churn events post before later
	// epochs — compileChurn's warming flag relies on that order.
	for _, st := range sp.Budget[1:] {
		s.postControl(st.At, s.replanLive)
	}
	for _, rs := range sp.Rates[1:] {
		s.postControl(rs.At, func() { s.rateStep(rs) })
	}
	if ch != nil {
		for _, ep := range ch.epochs {
			s.postControl(ep.at, func() { s.churnEpoch(ep) })
			if len(ep.adds) > 0 && ep.warmAt > ep.at {
				s.postControl(ep.warmAt, func() { s.warmEpoch(ep) })
			}
		}
	}

	// Power accounting per control interval: one timer walks the
	// interval boundaries, rescheduling itself in place. The interval
	// event only reads EnergyJ (and no co-timed event deposits energy
	// discontinuously), so its order among co-timed control events does
	// not affect any recorded value.
	nIv := int((sp.Horizon + sp.ControlPeriod - 1) / sp.ControlPeriod)
	s.res.IntervalEnergyJ = make([]float64, nIv)
	s.prevE = s.EnergyJ()
	s.ivTimer = eng.Schedule(s.intervalBoundary(1), s.intervalTick)

	// Per-shard sliding-window power-cap probe.
	// The cap bound is the largest budget slice this shard can ever
	// hold: max over budget steps crossed with max over membership
	// epochs of the live-device ratio. The bound covers the drain
	// overhang too — a removal only lowers the ratio, so the earlier,
	// larger bound still holds while retiring lanes finish drawing.
	var maxSlice float64
	for _, st := range sp.Budget {
		slice := st.FleetW * float64(s.devTotal) / float64(sp.Size)
		if ch != nil {
			for _, ep := range ch.epochs {
				if v := st.FleetW * float64(ep.live) / float64(ep.fleetLive); v > slice {
					slice = v
				}
			}
		}
		if slice > maxSlice {
			maxSlice = slice
		}
	}
	capProbe := invariant.AttachCap(eng, s, maxSlice*(1+DefaultCapTolFrac), sp.ControlPeriod, sp.ControlPeriod/20)

	// Open-loop arrival stream per lane.
	for _, l := range s.lanes {
		l.astream = rng.Stream(label("arrivals", l.g))
		if err := s.startLaneArrivals(l); err != nil {
			return nil, err
		}
	}

	s.meso = newMeso(s)

	eng.RunUntil(sp.Horizon)

	// Settle the analytic tier at the horizon, before governors are
	// stopped and in-flight IO drains: parked lanes contribute their
	// closed-form counts and energy through the full horizon.
	s.meso.settle()

	// Past the horizon: stop admitting and controlling, drain in-flight
	// IO so every admitted-and-submitted request's latency is counted.
	s.stopped = true
	for _, l := range s.lanes {
		for _, gv := range l.govs {
			gv.Stop()
		}
	}
	capProbe.Stop()
	s.res.CapWorstW = capProbe.WorstWindowW()
	s.res.CapOK = capProbe.Check(0.02) == nil
	for s.inflight > 0 && eng.Step() {
	}
	if s.inflight > 0 {
		return nil, fmt.Errorf("engine drained with %d IOs in flight", s.inflight)
	}
	s.res.SimulatedDur = eng.Now()
	s.res.Events = eng.Dispatched()

	for _, l := range s.lanes {
		for _, gv := range l.govs {
			s.res.GovSteps += gv.Steps
			s.res.GovRetries += gv.Retries
			s.res.GovFailures += gv.Failures
		}
		if l.redir != nil {
			s.res.Failovers += l.redir.Failovers
			s.res.WakesOnDemand += l.redir.WakesOnDemand
		}
	}
	// Return a copy, not &s.res: an interior pointer would keep the
	// whole finished shard (engine, devices, lanes) reachable until Run
	// merges, so peak memory would grow with Spec.Shards instead of
	// with the shards running at once.
	out := s.res
	return &out, nil
}

// buildGroup materializes replica group g of profile index pi as the
// shard's next lane: its devices, each wrapped with its fault outcome
// when pre holds one, a redirector over the replicas when mirrored, and
// the lane itself. rng roots the group's device and lane streams — the
// shard's stream for build-time groups, a per-group churn root for
// admitted ones. The caller starts governors and arrivals: both depend
// on when the group joins. g must be above every lane's group number,
// which keeps s.lanes sorted for laneOf.
func (s *shard) buildGroup(g, pi int, rng *sim.RNG, pre map[int]*preFault) (*lane, error) {
	if n := len(s.lanes); n > 0 && g <= s.lanes[n-1].g {
		return nil, fmt.Errorf("group %d built after group %d", g, s.lanes[n-1].g)
	}
	sp := s.spec
	profile := sp.Profiles[pi]
	l := &lane{sh: s, idx: len(s.lanes), g: g, pi: pi, planW: profileMaxW(profile)}
	l.devs = make([]device.Device, 0, sp.Replicas)
	for rep := 0; rep < sp.Replicas; rep++ {
		gi := g*sp.Replicas + rep
		name := InstanceName(profile, gi)
		d, err := baseDevice(sp, s.eng, rng, profile, name)
		if err != nil {
			return nil, err
		}
		if pf := pre[gi]; pf != nil {
			if d, err = fault.New(d, s.eng, pf.ds.Stream("inject"), fault.Profile{Windows: pf.wins}); err != nil {
				return nil, fmt.Errorf("fault windows for %s: %w", name, err)
			}
			s.res.Faulted++
			for _, w := range pf.wins {
				if end := w.End(); end > l.faultEnd {
					l.faultEnd = end
				}
			}
		}
		l.devs = append(l.devs, d)
	}

	l.dev = l.devs[0]
	if sp.Replicas > 1 {
		rd, err := adaptive.NewRedirector(label("group", g), l.devs, sp.active())
		if err != nil {
			return nil, err
		}
		l.redir, l.dev = rd, rd
	}
	l.span = l.dev.CapacityBytes()
	l.span -= l.span % chunkBytes
	l.rng = rng.Stream(label("lane", g))
	s.lanes = append(s.lanes, l)
	return l, nil
}

// startGovernors gives each of lane l's replicas a governor targeted at
// the lane's planned draw — none for a device without selectable power
// states.
func (s *shard) startGovernors(l *lane) error {
	for _, d := range l.devs {
		if len(d.PowerStates()) < 2 {
			continue
		}
		gv, err := adaptive.NewGovernor(s.eng, d, l.planW*govGuard, s.spec.ControlPeriod)
		if err != nil {
			return err
		}
		gv.Start()
		l.govs = append(l.govs, gv)
	}
	return nil
}

// postControl posts a control transition — a budget step, rate
// boundary, churn epoch or warm event — at `at`. Each re-plans or
// reshapes the shard's load, so every analytically aggregated lane
// returns to mechanistic simulation first: the rehydration settles its
// closed-form counts and restores governors and arrivals before fn
// changes the plan or the traffic underneath it.
func (s *shard) postControl(at time.Duration, fn func()) {
	s.eng.Post(at, func() {
		s.meso.rehydrateAll()
		fn()
	})
}

// shardHash derives a per-shard seed offset, so shards get independent
// but reproducible random streams no matter which worker runs them.
func shardHash(label string, idx int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", label, idx)
	return h.Sum64()
}
