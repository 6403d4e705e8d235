// Package serve is the fleet-scale serving engine: it drives hundreds
// to thousands of modeled devices under a shared power budget, the way
// the ROADMAP's production system would serve heavy user traffic.
//
// The fleet is sharded across a worker pool. Each shard is an
// independent discrete-event simulation (its own sim.Engine and derived
// RNG streams) holding a contiguous slice of the fleet: devices
// instantiated from internal/catalog profiles, optionally wrapped with
// internal/fault injection, grouped into mirrored replica groups behind
// adaptive.Redirectors. An open-loop Poisson stream of random writes
// (internal/workload arrivals) feeds per-group queues with admission
// control and request batching, and the control plane runs online: each
// shard re-plans its devices' power states over its cohorts' planning
// ladders on every budget step and membership change,
// internal/adaptive's per-device Governors enforce the planned draw in
// closed loop (retrying through injected command faults), and its
// Redirectors fail IO over around dropped replicas.
//
// Determinism contract: the merged Report is bit-identical for the same
// Spec regardless of GOMAXPROCS or worker scheduling. Shards derive
// their seeds from the spec (never from shard execution order), results
// land in fixed slots, and every merge folds in shard-index order.
package serve

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"wattio/internal/calib"
	"wattio/internal/fault"
	"wattio/internal/grid"
	"wattio/internal/workload"
)

// BudgetStep is one entry of the fleet power-budget schedule: from At
// onward the fleet-wide budget is FleetW watts.
type BudgetStep struct {
	At     time.Duration
	FleetW float64
}

// ChurnEvent is one scheduled membership change: at At, Add replica
// groups of Profile join the fleet (warming for Warmup before they
// serve traffic) and/or Remove groups of Profile drain their queued and
// in-flight work and retire. Added groups hold their budget share from
// At — warm-up is a real power cost — and removed groups stop holding
// one at At, with the drain overhang absorbed by the control plane's
// per-transition settle grace. Within one event additions apply before
// removals.
type ChurnEvent struct {
	At      time.Duration
	Profile string
	Add     int
	Remove  int
	Warmup  time.Duration
}

// Spec describes one serving run. Zero values take defaults.
type Spec struct {
	// Profiles is the catalog profile mix; replica groups round-robin
	// over it. Default {"SSD2"}.
	Profiles []string
	// Size is the number of devices in the fleet. Default 64.
	Size int
	// Shards is the number of independent simulation shards. The shard
	// count is part of the spec (not derived from the host) so results
	// are machine-independent; 0 derives a deterministic default from
	// Size. Worker parallelism adapts to the host separately.
	Shards int
	// Replicas is the mirror-group size (1 = no redirection); Size must
	// be a multiple of it. Replicas-1 of them (at least 1) serve, so one
	// replica per group rests until failover needs it.
	Replicas int

	// RateIOPS is the Poisson arrival rate per serving device; a group's
	// rate is RateIOPS times its serving replicas. Default 3000.
	RateIOPS float64
	// Rates is an optional piecewise-constant arrival-rate schedule (a
	// diurnal load curve): from each step's At onward, every lane's
	// per-serving-device rate is that step's IOPS. The first step must be
	// at 0; when set it supersedes RateIOPS (which normalization pins to
	// the first step's rate). Empty normalizes to the one-step schedule
	// {0, RateIOPS}.
	Rates []workload.RateStep

	// Churn schedules membership changes: scale-out events that admit
	// new replica groups mid-run (with a warm-up cost before they serve)
	// and scale-in events that drain and retire groups. Events must be
	// strictly increasing in time, inside (0, Horizon), and address a
	// profile from Profiles. With churn set the fleet's live size varies
	// over the run; budget slices scale with the live population.
	Churn []ChurnEvent

	// Horizon is the virtual serving time. Default 2 s.
	Horizon time.Duration
	// ControlPeriod paces governors, power-interval accounting, and the
	// budget-tracking check. Default 100 ms.
	ControlPeriod time.Duration
	// Budget is the fleet power-budget schedule, sorted by At with the
	// first step at 0. Nil defaults to a single never-binding step at
	// the fleet's maximum planning-model power.
	Budget []BudgetStep

	// Seed drives workload and device streams; FaultSeed independently
	// drives fault selection and injection, so the same traffic can be
	// replayed under different fault draws.
	Seed, FaultSeed uint64
	// FaultFrac is the fraction of devices given an injected fault
	// window (dropout or power-command failure), drawn from FaultSeed.
	FaultFrac float64
	// Faults scripts explicit fault windows onto named fleet instances
	// (see InstanceName). A scripted instance skips the FaultFrac draw;
	// all other instances are unaffected.
	Faults []DeviceFault

	// Meso enables the mesoscale aggregation tier: a replica group
	// whose serving fingerprint holds steady for two control periods
	// leaves event-driven simulation for an analytic aggregate
	// calibrated from its own measured draw, rehydrating at every
	// control transition (budget steps, rate boundaries, churn epochs
	// and warm-ups), for periodic sentinel re-measurements, and at the
	// horizon. A fault-injected lane parks only after its last fault
	// window closes. A sentinel re-measurement that disagrees with the
	// aggregate's calibrated draw by more than 10% bars the lane from
	// parking again (and trips the report's MesoDriftOK). Both
	// thresholds are constants of the tier (see meso.go).
	Meso bool

	// MesoGroupMin enables group-level parking (requires Meso): a shard
	// cohort — the interchangeable, same-profile replica groups of its
	// slice — with at least MesoGroupMin members keeps only MesoProbes
	// resident probe lanes (plus any fault-injected members) in
	// mechanistic simulation. Every other member is virtual: never
	// materialized, represented by a per-(cohort, power-state) bucket
	// holding a member count and one calibrated operating point donated
	// by the probes when they park. Budget steps re-plan over bucket
	// counts in O(#buckets), so control-period work is sublinear in
	// fleet size. 0 (the default) disables group parking entirely.
	// MesoProbes defaults to 2; raising it toward the profile's
	// power-state count speeds calibration coverage when a budget splits
	// a cohort across several states.
	MesoGroupMin int
	MesoProbes   int

	// Fitted substitutes learned device models (internal/calib) for the
	// mechanistic simulators of the named profiles: every fleet instance
	// of a mapped profile materializes as a calib.FittedDevice driven by
	// the fitted coefficients. Planning models, governors, budget
	// control, and fault wrapping are unchanged — a fitted profile is
	// just another device behind the same interface. Profiles absent
	// from the map keep their mechanistic simulators.
	Fitted map[string]*calib.Model
}

// The request stream every lane serves: random writes of chunkBytes,
// up to laneDepth in flight per replica group — the shape the planning
// table (models.go) was measured at. A dispatch pass submits at most
// dispatchBatch queued requests back-to-back, and arrivals beyond
// queueCap queued requests are rejected (counted, not retried).
const (
	chunkBytes    = 256 << 10
	laneDepth     = 64
	dispatchBatch = 8
	queueCap      = 4 * laneDepth
)

// DefaultCapTolFrac is the budget-tracking tolerance: an interval's
// achieved power may exceed its budget by this fraction, and the
// per-shard cap probe's bound carries the same slack. Reports that print
// the tolerance use it.
const DefaultCapTolFrac = 0.10

// defaultMesoProbes is the resident probe-lane count per group-parked
// cohort taken when Spec.MesoProbes is left zero.
const defaultMesoProbes = 2

// DeviceFault scripts fault windows onto one named fleet instance.
type DeviceFault struct {
	Device  string
	Windows []fault.Window
}

// FieldError is the error Validate, and so Run, returns for a spec it
// refuses. Path names the offending field as a scenario file's fleet
// stanza spells it ("size", "churn[0].remove", "arrivals[1].at",
// "budget[1]", "meso.probes", "faults[0].device"), so the scenario
// layer reports it under its own "fleet." prefix.
type FieldError struct {
	Path, Msg string
}

func (e *FieldError) Error() string { return "serve: " + e.Path + ": " + e.Msg }

func fieldErr(path, format string, args ...any) error {
	return &FieldError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// withDefaults returns a copy with every zero field except Budget given
// its default. It never fails, whatever the spec holds: Validate checks
// its result, and normalized adds the never-binding budget, whose
// O(groups) sum validation does not pay.
func (s Spec) withDefaults() Spec {
	if len(s.Profiles) == 0 {
		s.Profiles = []string{"SSD2"}
	}
	if s.Size == 0 {
		s.Size = 64
	}
	if s.Replicas == 0 {
		s.Replicas = 1
	}
	if s.Shards == 0 {
		s.Shards = min((s.Size/s.Replicas+15)/16, 16)
	}
	if s.RateIOPS == 0 {
		s.RateIOPS = 3000
	}
	// A flat rate is the one-step schedule, so the engine has a single
	// arrival path.
	if len(s.Rates) == 0 {
		s.Rates = []workload.RateStep{{At: 0, IOPS: s.RateIOPS}}
	}
	if s.Horizon == 0 {
		s.Horizon = 2 * time.Second
	}
	if s.ControlPeriod == 0 {
		s.ControlPeriod = 100 * time.Millisecond
	}
	if s.MesoGroupMin > 0 && s.MesoProbes == 0 {
		s.MesoProbes = defaultMesoProbes
	}
	return s
}

// active is the number of replicas serving in each group.
func (s *Spec) active() int { return max(s.Replicas-1, 1) }

// Validate returns the first reason Run would refuse the spec, as a
// *FieldError, or nil. It is the one check of fleet semantics: scenario
// validation runs it on every fleet stanza. Only the fields of a fault
// window are left to fault.New, which checks them as it wraps the
// device. Its cost does not grow with the fleet size: O(#profiles ×
// (#churn events + 1) + #schedule steps + #fault scripts + #fitted
// models). The opening cohort sizes the churn walk starts from are
// closed-form, and fault targets are parsed, not looked up.
func (s Spec) Validate() error {
	s = s.withDefaults()
	for i, p := range s.Profiles {
		if _, ok := planningTable[p]; !ok {
			return fieldErr(fmt.Sprintf("profiles[%d]", i), "unknown profile %q (planning models cover %s)",
				p, strings.Join(knownProfiles(), ", "))
		}
	}
	for p, m := range s.Fitted {
		if _, ok := planningTable[p]; !ok {
			return fieldErr("calib", "fitted model for unknown profile %q", p)
		}
		if m == nil {
			return fieldErr("calib", "nil fitted model for profile %q", p)
		}
		if err := m.Validate(); err != nil {
			return fieldErr("calib", "fitted model for %q: %v", p, err)
		}
	}
	if s.Size < 1 {
		return fieldErr("size", "fleet size %d must be positive", s.Size)
	}
	if s.Replicas < 1 || s.Size%s.Replicas != 0 {
		return fieldErr("replicas", "fleet size %d not divisible into replica groups of %d", s.Size, s.Replicas)
	}
	if s.Shards < 1 {
		return fieldErr("shards", "shard count %d must be positive", s.Shards)
	}
	if s.RateIOPS <= 0 {
		return fieldErr("rate_iops", "arrival rate %v must be positive", s.RateIOPS)
	}
	if s.Horizon <= 0 {
		return fieldErr("runtime", "horizon %v must be positive", s.Horizon)
	}
	if s.ControlPeriod <= 0 || s.ControlPeriod > s.Horizon {
		return fieldErr("control_period", "control period %v out of (0, horizon %v]", s.ControlPeriod, s.Horizon)
	}
	if s.FaultFrac < 0 || s.FaultFrac > 1 {
		return fieldErr("fault_frac", "fault fraction %v out of [0, 1]", s.FaultFrac)
	}
	if s.MesoGroupMin < 0 {
		return fieldErr("meso.group_min", "meso group minimum %d must be non-negative", s.MesoGroupMin)
	}
	if s.MesoGroupMin > 0 && !s.Meso {
		return fieldErr("meso.enable", "meso group parking requires the meso tier")
	}
	if s.MesoProbes < 0 {
		return fieldErr("meso.probes", "meso probe count %d must be non-negative", s.MesoProbes)
	}
	if s.MesoProbes > 0 && s.MesoGroupMin == 0 {
		return fieldErr("meso.probes", "meso probes set without group parking (set group_min)")
	}
	if s.MesoGroupMin > 0 && s.MesoProbes >= s.MesoGroupMin {
		return fieldErr("meso.probes", "meso probe count %d must be below the group minimum %d (a cohort that is all probes has nothing to virtualize)",
			s.MesoProbes, s.MesoGroupMin)
	}
	for i, rs := range s.Rates {
		path := fmt.Sprintf("arrivals[%d]", i)
		if i == 0 && rs.At != 0 {
			return fieldErr(path+".at", "rate schedule must start at 0, got %v", rs.At)
		}
		if rs.IOPS <= 0 {
			return fieldErr(path+".rate_iops", "rate step has non-positive rate %v", rs.IOPS)
		}
		if i > 0 && rs.At <= s.Rates[i-1].At {
			return fieldErr(path+".at", "rate schedule not strictly increasing at %v", rs.At)
		}
		if rs.At >= s.Horizon {
			return fieldErr(path+".at", "rate step at %v is past the horizon %v", rs.At, s.Horizon)
		}
	}
	if len(s.Churn) > 0 {
		// Walk per-profile live group counts through the schedule so
		// every removal is known to have a target and no cohort ever
		// empties out. Groups round-robin over the profiles, so the
		// opening counts are closed-form.
		P, groups := len(s.Profiles), s.Size/s.Replicas
		live := make([]int, P)
		for j := range live {
			live[j] = groups / P
			if j < groups%P {
				live[j]++
			}
		}
		for i, ev := range s.Churn {
			path := fmt.Sprintf("churn[%d]", i)
			if ev.At <= 0 || ev.At >= s.Horizon {
				return fieldErr(path+".at", "churn event at %v outside (0, horizon)", ev.At)
			}
			if i > 0 && ev.At <= s.Churn[i-1].At {
				return fieldErr(path+".at", "churn schedule not strictly increasing at %v", ev.At)
			}
			pi := slices.Index(s.Profiles, ev.Profile)
			if pi < 0 {
				return fieldErr(path+".profile", "churn event addresses unknown cohort %q (profiles are %v)", ev.Profile, s.Profiles)
			}
			if ev.Add < 0 || ev.Remove < 0 || ev.Add+ev.Remove == 0 {
				return fieldErr(path, "churn event must add or remove at least one group (add %d, remove %d)", ev.Add, ev.Remove)
			}
			if ev.Warmup < 0 {
				return fieldErr(path+".warmup", "churn event has negative warm-up %v", ev.Warmup)
			}
			if ev.Add > 0 && ev.At+ev.Warmup >= s.Horizon {
				return fieldErr(path+".warmup", "warm-up ends at %v, past the horizon %v", ev.At+ev.Warmup, s.Horizon)
			}
			live[pi] += ev.Add
			if ev.Remove >= live[pi] {
				return fieldErr(path+".remove", "removes %d of cohort %q's %d live groups (at least one must remain)",
					ev.Remove, ev.Profile, live[pi])
			}
			live[pi] -= ev.Remove
		}
	}
	for i, st := range s.Budget {
		path := fmt.Sprintf("budget[%d]", i)
		if i == 0 && st.At != 0 {
			return fieldErr(path, "budget schedule must start at 0, got %v", st.At)
		}
		if st.FleetW <= 0 {
			return fieldErr(path, "budget step has non-positive power %v", st.FleetW)
		}
		if math.IsNaN(st.FleetW) || math.IsInf(st.FleetW, 0) {
			return fieldErr(path, "budget step power %v is not finite", st.FleetW)
		}
		if i > 0 && st.At <= s.Budget[i-1].At {
			return fieldErr(path, "budget schedule not strictly increasing at %v", st.At)
		}
		if st.At >= s.Horizon {
			return fieldErr(path, "budget step at %v is past the horizon %v", st.At, s.Horizon)
		}
	}
	// Fault targets are checked structurally (parse, bounds, profile
	// round-trip) rather than against an enumerated name set, so the
	// check stays O(#fault-stanzas) no matter the fleet size.
	for i, df := range s.Faults {
		path := fmt.Sprintf("faults[%d]", i)
		profile, idx, err := parseInstanceName(df.Device)
		if err != nil || idx >= s.Size || s.profileOf(idx) != profile {
			return fieldErr(path+".device", "no fleet instance named %q (names are profile#index, e.g. %q)",
				df.Device, InstanceName(s.profileOf(0), 0))
		}
		if len(df.Windows) == 0 {
			return fieldErr(path+".windows", "fault script for %q has no windows", df.Device)
		}
	}
	return nil
}

// normalized returns the copy Run serves: the spec validated, defaults
// filled in (the never-binding budget among them), and the shard count
// clamped to the group count. The never-binding default budget still
// walks every group: its bits reach WorstOverW, so the sum keeps its
// group-by-group float order. Each profile's lane maximum is read once
// beforehand, leaving one addition per group.
func (s Spec) normalized() (Spec, error) {
	if err := s.Validate(); err != nil {
		return s, err
	}
	s = s.withDefaults()
	groups := s.Size / s.Replicas
	s.Shards = min(s.Shards, groups)
	s.RateIOPS = s.Rates[0].IOPS
	if len(s.Budget) == 0 {
		laneMaxW := make([]float64, len(s.Profiles))
		for j, p := range s.Profiles {
			laneMaxW[j] = float64(s.Replicas) * profileMaxW(p)
		}
		var maxW float64
		for gi, j := 0, 0; gi < groups; gi++ {
			maxW += laneMaxW[j]
			if j++; j == len(laneMaxW) {
				j = 0
			}
		}
		s.Budget = []BudgetStep{{At: 0, FleetW: maxW * 1.01}}
	}
	return s, nil
}

// rawStep is one structurally-parsed schedule step, before any fleet
// size is applied: the step time, the watts value as written, and
// whether the "pd" (per-device) suffix was present.
type rawStep struct {
	at     time.Duration
	watts  float64
	perDev bool
}

// parseScheduleSteps is the structural half of schedule parsing, shared
// by ParseSchedule (which scales per-device steps by a fleet size) and
// ScheduleKey (which must stay size-free so two spellings of the same
// schedule compare equal at every fleet size).
func parseScheduleSteps(text string) ([]rawStep, error) {
	if strings.TrimSpace(text) == "" {
		return nil, fmt.Errorf("serve: empty budget schedule")
	}
	var out []rawStep
	for _, part := range strings.Split(text, ",") {
		at, watts, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("serve: budget step %q is not duration:watts", part)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			return nil, fmt.Errorf("serve: budget step %q: %v", part, err)
		}
		perDev := false
		if strings.HasSuffix(watts, "pd") {
			perDev = true
			watts = strings.TrimSuffix(watts, "pd")
		}
		w, err := strconv.ParseFloat(watts, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: budget step %q: bad watts %q", part, watts)
		}
		if n := len(out); n > 0 {
			switch {
			case d == out[n-1].at:
				return nil, fmt.Errorf("serve: budget step %q repeats step time %v", part, d)
			case d < out[n-1].at:
				return nil, fmt.Errorf("serve: budget step %q goes backward (%v after %v)", part, d, out[n-1].at)
			}
		}
		out = append(out, rawStep{at: d, watts: w, perDev: perDev})
	}
	return out, nil
}

// ParseSchedule parses a budget schedule flag: comma-separated
// "duration:watts" steps, e.g. "0s:640,1s:448". A "pd" suffix on the
// watts makes the value per-device, scaled by the fleet size:
// "0s:14pd" means size × 14 W. Step times must be strictly increasing;
// empty schedules, duplicate times, and backward steps are rejected
// with the offending segment named — scenario validation surfaces
// these messages verbatim.
func ParseSchedule(text string, size int) ([]BudgetStep, error) {
	steps, err := parseScheduleSteps(text)
	if err != nil {
		return nil, err
	}
	out := make([]BudgetStep, len(steps))
	for i, st := range steps {
		w := st.watts
		if st.perDev {
			w *= float64(size)
		}
		out[i] = BudgetStep{At: st.at, FleetW: w}
	}
	return out, nil
}

// ScheduleKey returns the canonical re-encoding of a budget schedule
// flag — fixed duration rendering, minimal float form, the "pd" suffix
// preserved — so two spellings of the same schedule ("0s:14.60pd" and
// " 0s:14.6pd") produce the same key at every fleet size. Scenario grid
// validation uses it to reject duplicate budget-axis values.
func ScheduleKey(text string) (string, error) {
	steps, err := parseScheduleSteps(text)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, st := range steps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(st.at.String())
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(st.watts, 'g', -1, 64))
		if st.perDev {
			b.WriteString("pd")
		}
	}
	return b.String(), nil
}

// Interval is one control-period slice of the merged power accounting.
type Interval struct {
	Start time.Duration
	Dur   time.Duration
	// BudgetW is the scheduled budget averaged over the interval: equal
	// to the step in force at Start for most intervals, time-weighted
	// across the transition for an interval a budget step lands inside.
	BudgetW   float64
	AchievedW float64
	// Checked is false for the one interval per budget step that falls
	// inside the step's settle window (see stepGraces): tracking binds
	// again exactly one control period after each transition, no matter
	// how the step aligns with interval boundaries. The initial plan
	// application at t=0 gets the same grace — devices enter the horizon
	// in their power-on state with full burst allowances.
	Checked bool
}

// Report is the merged outcome of a serving run. For a fixed Spec it is
// bit-identical regardless of host parallelism.
type Report struct {
	Devices, Groups, Shards, Faulted int

	Offered, Admitted, Rejected, Completed int64
	Batches                                int64
	BytesCompleted                         int64
	ThroughputMBps                         float64
	LatP50, LatP99, LatMax                 time.Duration

	// SimulatedDur is the virtual time the run actually covered: the
	// horizon, extended by whatever post-horizon drain the slowest shard
	// needed to complete its in-flight IO (a dropout window releasing
	// held requests can push this well past the horizon). ThroughputMBps
	// divides by it, not the nominal horizon.
	SimulatedDur time.Duration
	// Events is the total number of kernel events dispatched across all
	// shards — the deterministic measure of mechanistic simulation work
	// (wall clock is host-dependent; this is not). A device stage run as
	// a direct call because it was due at the instant that reached it
	// (internal/ssd's hops) is no event and is not counted.
	Events uint64

	Intervals  []Interval
	AvgPowerW  float64
	WorstOverW float64
	TrackOK    bool

	GovSteps, GovRetries, GovFailures int
	// Replans counts shard re-plans that fit their budget slice;
	// Infeasible counts those whose slice cannot hold every lane at its
	// lowest planning level, which keep the previous plan. Compensations
	// counts devices refusing their planned power state, summed over
	// re-plans: a device that refuses at three re-plans counts three.
	Replans, Compensations, Infeasible int
	Failovers, WakesOnDemand           int

	CapOK     bool
	CapWorstW float64

	// Mesoscale-tier accounting (zero unless Spec.Meso is set).
	// MesoDehydrations counts lane transitions out of event-driven
	// simulation into the analytic aggregate; MesoRehydrations the
	// reverse. MesoParkedPeriods counts lane×control-period units served
	// analytically, and MesoAggJ is the dynamic (above-idle) energy the
	// aggregates accounted. MesoWorstDriftFrac is the worst relative
	// disagreement any sentinel re-measurement observed between an
	// aggregate's calibrated power and the mechanistic re-simulation;
	// MesoDriftOK is whether every observation stayed within the spec's
	// drift tolerance.
	MesoDehydrations, MesoRehydrations int
	MesoParkedPeriods                  int
	MesoAggJ                           float64
	MesoWorstDriftFrac                 float64
	MesoDriftOK                        bool

	// Group-parking accounting (zero unless Spec.MesoGroupMin is set).
	// MesoGroupLanes is how many lanes ran as virtual cohort members
	// (never materialized); MesoGroupBuckets how many (cohort,
	// power-state) aggregate buckets ever existed; MesoGroupScans the
	// total bucket slots touched across every group re-plan — the
	// control-period cost that replaces the O(#lanes) scan; MesoGroupJ
	// the energy attributed to virtual members from probe-calibrated
	// operating points. Virtual members also count into
	// MesoParkedPeriods each control period.
	MesoGroupLanes, MesoGroupBuckets, MesoGroupScans int
	MesoGroupJ                                       float64

	// Lane-lifecycle accounting (zero unless Spec.Churn is set).
	// ChurnAdds/ChurnRemoves count replica groups admitted and retired
	// mid-run. Warm-up recovery latency is admission (the churn event)
	// to a lane's first completed request — virtual cohort members
	// report their modeled warm-up instead; drain recovery latency is
	// the removal event to the last in-flight completion — instantaneous
	// for virtual members, whose queue is analytic. Quantiles cover the
	// groups whose transition completed inside the simulated window.
	ChurnAdds, ChurnRemoves int
	WarmupP50, WarmupMax    time.Duration
	DrainP50, DrainMax      time.Duration
}

// Run executes the serving engine and returns the merged report.
func Run(spec Spec) (*Report, error) {
	sp, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	groups := sp.Size / sp.Replicas

	// Partition replica groups into contiguous shard ranges.
	ranges := make([]shardRange, sp.Shards)
	base, rem := groups/sp.Shards, groups%sp.Shards
	g := 0
	for i := range ranges {
		n := base
		if i < rem {
			n++
		}
		ranges[i] = shardRange{g0: g, g1: g + n}
		g += n
	}

	churn := compileChurn(&sp, ranges)

	results := make([]*shardResult, sp.Shards)
	errs := make([]error, sp.Shards)
	grid.Pool(sp.Shards, runtime.GOMAXPROCS(0), func(i int) {
		results[i], errs[i] = runShard(&sp, i, ranges[i], churnFor(churn, i))
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	return merge(&sp, results), nil
}

// merge folds the per-shard results in shard-index order, so every sum
// has a fixed association order and the report stays bit-identical.
func merge(sp *Spec, results []*shardResult) *Report {
	r := &Report{
		Devices:      sp.Size,
		Groups:       sp.Size / sp.Replicas,
		Shards:       sp.Shards,
		TrackOK:      true,
		CapOK:        true,
		MesoDriftOK:  true,
		SimulatedDur: sp.Horizon,
	}
	var warmLats, drainLats []time.Duration
	nIntervals := len(results[0].IntervalEnergyJ)
	energy := make([]float64, nIntervals)
	for _, s := range results {
		r.Faulted += s.Faulted
		r.Offered += s.Offered
		r.Admitted += s.Admitted
		r.Rejected += s.Rejected
		r.Completed += s.Completed
		r.Batches += s.Batches
		r.BytesCompleted += s.BytesCompleted
		r.GovSteps += s.GovSteps
		r.GovRetries += s.GovRetries
		r.GovFailures += s.GovFailures
		r.Replans += s.Replans
		r.Compensations += s.Compensations
		r.Infeasible += s.Infeasible
		r.Failovers += s.Failovers
		r.WakesOnDemand += s.WakesOnDemand
		if !s.CapOK {
			r.CapOK = false
		}
		if s.CapWorstW > r.CapWorstW {
			r.CapWorstW = s.CapWorstW
		}
		for k, e := range s.IntervalEnergyJ {
			energy[k] += e
		}
		if s.SimulatedDur > r.SimulatedDur {
			r.SimulatedDur = s.SimulatedDur
		}
		r.Events += s.Events
		r.MesoDehydrations += s.MesoDehydrations
		r.MesoRehydrations += s.MesoRehydrations
		r.MesoParkedPeriods += s.MesoParkedPeriods
		r.MesoAggJ += s.MesoAggJ
		r.MesoGroupLanes += s.MesoGroupLanes
		r.MesoGroupBuckets += s.MesoGroupBuckets
		r.MesoGroupScans += s.MesoGroupScans
		r.MesoGroupJ += s.MesoGroupJ
		if s.MesoWorstDriftFrac > r.MesoWorstDriftFrac {
			r.MesoWorstDriftFrac = s.MesoWorstDriftFrac
		}
		if !s.MesoDriftOK {
			r.MesoDriftOK = false
		}
		r.ChurnAdds += s.ChurnAdds
		r.ChurnRemoves += s.ChurnRemoves
		warmLats = append(warmLats, s.WarmupLats...)
		drainLats = append(drainLats, s.DrainLats...)
	}
	r.WarmupP50, r.WarmupMax = latQuantiles(warmLats)
	r.DrainP50, r.DrainMax = latQuantiles(drainLats)

	logs := make([]*latLog, len(results))
	n := 0
	for i, s := range results {
		logs[i] = &s.Latencies
		n += s.Latencies.n
	}
	if n > 0 {
		p50, f50 := quantileRank(n, 0.50)
		p99, f99 := quantileRank(n, 0.99)
		v := latRanks(logs, []int{p50, min(p50+1, n-1), p99, min(p99+1, n-1), n - 1})
		r.LatP50 = interpolate(v[0], v[1], f50)
		r.LatP99 = interpolate(v[2], v[3], f99)
		r.LatMax = v[4]
	}
	// Throughput is bytes over the virtual time the run actually covered,
	// not the nominal horizon: a fault-heavy run whose drain releases held
	// IO past the horizon served those bytes over the longer window, and
	// dividing by the horizon would overstate the rate.
	r.ThroughputMBps = float64(r.BytesCompleted) / 1e6 / r.SimulatedDur.Seconds()

	// Every control transition — budget steps (the initial plan at 0
	// included), churn epochs, warm-up completions, rate-schedule
	// boundaries — re-plans the fleet, and each gets the same one-period
	// settle grace (see stepGraces).
	var controls []time.Duration
	for _, st := range sp.Budget {
		controls = append(controls, st.At)
	}
	for _, ev := range sp.Churn {
		controls = append(controls, ev.At)
		if ev.Add > 0 {
			controls = append(controls, ev.At+ev.Warmup)
		}
	}
	for _, rs := range sp.Rates[1:] {
		controls = append(controls, rs.At)
	}

	var totalE float64
	lastStart := time.Duration(nIntervals-1) * sp.ControlPeriod
	for k := 0; k < nIntervals; k++ {
		start := time.Duration(k) * sp.ControlPeriod
		end := start + sp.ControlPeriod
		if end > sp.Horizon {
			end = sp.Horizon
		}
		iv := Interval{
			Start:     start,
			Dur:       end - start,
			BudgetW:   avgBudgetW(sp.Budget, start, end),
			AchievedW: energy[k] / (end - start).Seconds(),
			Checked:   true,
		}
		for _, t := range controls {
			if stepGraces(t, start, end, sp.ControlPeriod, lastStart) {
				iv.Checked = false
			}
		}
		totalE += energy[k]
		if iv.Checked {
			over := iv.AchievedW - iv.BudgetW
			if over > r.WorstOverW {
				r.WorstOverW = over
			}
			if iv.AchievedW > iv.BudgetW*(1+DefaultCapTolFrac) {
				r.TrackOK = false
			}
		}
		r.Intervals = append(r.Intervals, iv)
	}
	r.AvgPowerW = totalE / sp.Horizon.Seconds()
	return r
}

// quantileRank is stats.QuantileSorted's position for quantile q of n
// samples: the rank below q(n-1) and the weight of the rank above it.
// n must be positive.
func quantileRank(n int, q float64) (lo int, frac float64) {
	pos := q * float64(n-1)
	l := math.Floor(pos)
	return int(l), pos - l
}

// interpolate is stats.QuantileSorted's blend of the samples at a
// quantile's two ranks, in float64 nanoseconds, so a quantile taken
// from selected ranks matches QuantileSorted on the merged sample bit
// for bit.
func interpolate(a, b time.Duration, frac float64) time.Duration {
	if frac == 0 {
		return a
	}
	return time.Duration(float64(a)*(1-frac) + float64(b)*frac)
}

// Radix select over latency logs. The first pass counts every chunk
// entry into log-scale buckets: values under 2^(latMantBits+1) get one
// bucket each, and every octave above gets 2^latMantBits, so a bucket
// is a power-of-two range no wider than 1/128 of its values. Each
// further pass counts only the entries inside one target range into
// 2^latSubBits equal sub-ranges and narrows the range to the one that
// holds the rank, until it is one value: at most two passes, since no
// bucket is wider than 2^24.
const (
	latMantBits = 7
	latBuckets  = (33 - latMantBits) << latMantBits
	latSubBits  = 12
)

// latBucket is the log-scale bucket of v.
func latBucket(v uint32) int {
	e := max(bits.Len32(v), latMantBits+1) - (latMantBits + 1)
	return e<<latMantBits + int(v>>e)
}

// latTarget is a rank being selected: its 0-based rank rem among the
// entries of the power-of-two range [lo, lo+2^w) of chunk values that
// holds it.
type latTarget struct {
	lo     uint32
	w, rem int
}

// latRanks returns the samples of the given ranks (0-based, in any order)
// in the union of the logs, where a sort of every entry would place
// them, without gathering or sorting the entries. Ranks past the chunk
// entries index the logs' big latencies, which are few and all larger;
// the others come from counting passes over the chunks (see
// latMantBits). The passes share one histogram and one array of
// sub-range counters.
func latRanks(logs []*latLog, ranks []int) []time.Duration {
	var chunks [][]uint32
	var big []time.Duration
	small := 0
	for _, g := range logs {
		chunks = append(chunks, g.full...)
		chunks = append(chunks, g.cur)
		big = append(big, g.big...)
		small += g.n - len(g.big)
	}
	slices.Sort(big)

	// Selection runs over ascending ranks; order maps them back.
	order := make([]int, len(ranks))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return ranks[a] - ranks[b] })
	out := make([]time.Duration, len(ranks))
	var tgt []latTarget
	for _, i := range order {
		if k := ranks[i]; k >= small {
			out[i] = big[k-small]
		} else {
			tgt = append(tgt, latTarget{rem: k})
		}
	}
	if len(tgt) == 0 {
		return out
	}

	hist := make([]int, latBuckets)
	for _, c := range chunks {
		for _, v := range c {
			hist[latBucket(v)]++
		}
	}
	below, b := 0, 0
	for i := range tgt {
		k := tgt[i].rem // ascending, so the scan resumes where it stopped
		for below+hist[b] <= k {
			below += hist[b]
			b++
		}
		e := max(b>>latMantBits, 1) - 1
		tgt[i] = latTarget{lo: uint32(b-e<<latMantBits) << e, w: e, rem: k - below}
	}

	// Targets that share a range are adjacent. Each pass counts one
	// range wider than one value and narrows every target in it, which
	// may split them across sub-ranges; the loop moves on only past a
	// resolved target.
	counts := make([]int, 1<<latSubBits)
	for i := 0; i < len(tgt); {
		lo, w := tgt[i].lo, tgt[i].w
		if w == 0 {
			i++
			continue
		}
		shift := max(w-latSubBits, 0)
		cs := counts[:1<<(w-shift)]
		clear(cs)
		width := uint32(1) << w
		for _, c := range chunks {
			for _, v := range c {
				if d := v - lo; d < width {
					cs[d>>shift]++
				}
			}
		}
		for k := i; k < len(tgt) && tgt[k].lo == lo && tgt[k].w == w; k++ {
			t := &tgt[k]
			j := 0
			for t.rem >= cs[j] {
				t.rem -= cs[j]
				j++
			}
			t.lo += uint32(j) << shift
			t.w = shift
		}
	}
	for _, i := range order[:len(tgt)] {
		out[i] = time.Duration(tgt[0].lo)
		tgt = tgt[1:]
	}
	return out
}

// latQuantiles returns the p50 and maximum of a latency sample, sorting
// it in place; zeros when the sample is empty.
func latQuantiles(lats []time.Duration) (p50, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	slices.Sort(lats)
	lo, frac := quantileRank(len(lats), 0.50)
	return interpolate(lats[lo], lats[min(lo+1, len(lats)-1)], frac), lats[len(lats)-1]
}

// budgetAt returns the scheduled fleet budget in force at time t: the
// last step whose time is at or before t (a step binds exactly at its
// own time). ParseSchedule guarantees the first step is at 0 and times
// strictly increase, so the scan's final match is the binding step.
func budgetAt(sched []BudgetStep, t time.Duration) float64 {
	w := sched[0].FleetW
	for _, st := range sched {
		if st.At <= t {
			w = st.FleetW
		}
	}
	return w
}

// stepGraces reports whether the budget step at stepAt graces the
// control interval [start, end). The settle window after a step is
// [stepAt, stepAt+cp): governors get one full control period to pull
// the fleet onto the new plan, so the single interval whose start lies
// in that window is exempt from tracking. Every step thereby graces
// exactly one interval regardless of boundary alignment — a step
// landing exactly on an interval boundary graces that interval, a
// mid-interval step graces the next one (its own interval is instead
// checked against the time-weighted budget, see avgBudgetW). A step
// inside the run's final interval has no following interval to grace,
// so the interval containing it takes the grace. The previous overlap
// rule graced both intervals touching the window, so an unaligned step
// silently stretched the grace toward two periods. lastStart is the
// start of the run's final interval.
func stepGraces(stepAt, start, end, cp, lastStart time.Duration) bool {
	if stepAt <= start && start < stepAt+cp {
		return true
	}
	// First interval start at or after the step; when it lies beyond the
	// final interval the window rule above can never match, and the
	// grace falls back to the interval the step lands in.
	next := (stepAt + cp - 1) / cp * cp
	return next > lastStart && start <= stepAt && stepAt < end
}

// avgBudgetW returns the scheduled budget averaged over [start, end):
// budgetAt(start) when no step lands strictly inside the interval,
// otherwise the exact time-weighted mean across the transition(s). An
// interval split by a step ran part under the old budget and part under
// the new; its energy-derived AchievedW can only be compared against
// the same time weighting.
func avgBudgetW(sched []BudgetStep, start, end time.Duration) float64 {
	t, acc := start, 0.0
	for _, st := range sched {
		if st.At <= start {
			continue
		}
		if st.At >= end {
			break
		}
		acc += budgetAt(sched, t) * float64(st.At-t)
		t = st.At
	}
	if t == start {
		return budgetAt(sched, start)
	}
	acc += budgetAt(sched, t) * float64(end-t)
	return acc / float64(end-start)
}
