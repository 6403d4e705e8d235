// Package scenario is the declarative layer over the whole testbed:
// one typed, versioned spec describes a run — devices from the catalog
// with optional fault scripts, workload shape, budget schedule,
// fleet/control settings, seeds, and scale — and one builder
// materializes it into engine-attached devices, fault wrappers,
// arrival generators, and budget-controlled serving specs.
//
// The pipeline is: JSON file → Parse (strict: unknown fields are
// rejected) → Validate (semantic checks that fail loudly with the
// offending path) → builders (ServeSpec, BuildDevices, Job). A fleet
// stanza is validated by the serving engine's own serve.Spec.Validate
// at the run's resolved horizon (Horizon: the spec's runtime, else its
// scale's), so a spec that validates never fails in serve.Run. Every
// layer that used to hand-wire these pieces — the experiment runners,
// the serving engine setup, cmd/powerbench, and the examples — now
// goes through this package, so adding a scenario is a data change,
// not a code change.
//
// Determinism contract: a spec fully determines a run. Two runs of the
// same spec produce bit-identical reports (the engine layers below
// guarantee this for fixed seeds), and Canonical re-encoding is a
// fixed point: parse(canonical(s)) == s, which is what lets canonical
// spec files serve as golden inputs.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/fault"
	"wattio/internal/serve"
	"wattio/internal/workload"
)

// Version is the spec schema version this package reads and writes.
// Parse rejects any other version so stale tooling fails loudly
// instead of silently dropping fields. Version 2 only added the
// campaign grid stanza, so a version-1 spec migrates by setting its
// version field to 2.
const Version = 2

// The virtual run length a spec gets from its scale when it sets no
// runtime of its own.
const (
	QuickRuntime = 2 * time.Second
	PaperRuntime = time.Minute
)

// Horizon returns the run's resolved virtual length: the spec's runtime
// when set, else its scale's.
func (s *Spec) Horizon() time.Duration {
	switch {
	case s.Runtime > 0:
		return s.Runtime.D()
	case s.Scale == "paper":
		return PaperRuntime
	}
	return QuickRuntime
}

// Size ceilings keep a malformed (or adversarial, under fuzzing) spec
// from ballooning validation or materialization — a spec that passes
// Validate must always be cheap enough to build.
const (
	maxDeviceCount = 4096
	// maxFleetSize admits million-device fleets: with the group-parked
	// meso tier the builder materializes only probes and faulted members,
	// and validation's cost does not grow with the fleet size (see
	// serve.Spec.Validate), so the bound is a sanity rail rather than a
	// cost ceiling.
	maxFleetSize  = 1 << 24
	maxRolloutDim = 1 << 16
)

// Spec is one complete, self-contained run description.
type Spec struct {
	// Version is the spec schema version; must equal Version.
	Version int `json:"version"`
	// Name identifies the scenario (file names and reports use it).
	Name string `json:"name"`
	// Notes is free-form documentation carried with the spec.
	Notes string `json:"notes,omitempty"`
	// Experiment is the registered experiment id the spec drives
	// ("fleet", "chaos", "fig4", ... or "all").
	Experiment string `json:"experiment"`
	// Scale selects the base bounds: "quick" (default) or "paper".
	Scale string `json:"scale,omitempty"`
	// Runtime overrides the scale's runtime bound when positive.
	Runtime Duration `json:"runtime,omitempty"`
	// TotalBytes overrides the scale's byte bound when positive.
	TotalBytes int64 `json:"total_bytes,omitempty"`
	// Seed drives workload and device streams; FaultSeed independently
	// drives fault selection and injection.
	Seed      uint64 `json:"seed"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`

	// Devices lists catalog devices for single-engine scenarios (the
	// examples, model-building experiments). Fleet scenarios size their
	// device population in Fleet instead.
	Devices []DeviceSpec `json:"devices,omitempty"`
	// Workload shapes the IO stream for device scenarios.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Fleet parameterizes the serving engine (experiment "fleet").
	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Chaos parameterizes the chaos experiment's four phases.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
	// Grid is the campaign stanza (new in version 2): each populated
	// axis lists values one fleet knob sweeps over, and Expand resolves
	// the spec into the named cross-product family of point specs.
	Grid *GridSpec `json:"grid,omitempty"`
}

// DeviceSpec is one catalog device (or a homogeneous group of them)
// with an optional scripted fault profile.
type DeviceSpec struct {
	// Profile is the catalog profile: SSD1, SSD2, SSD3, HDD, EVO, C960.
	Profile string `json:"profile"`
	// Name is the instance base name; default is the profile name. With
	// Count > 1 instances are named name0, name1, ...
	Name string `json:"name,omitempty"`
	// Count is how many instances to build; default 1.
	Count int `json:"count,omitempty"`
	// Faults scripts deterministic fault windows onto the device(s).
	Faults []FaultWindow `json:"faults,omitempty"`
}

// FaultWindow is one scripted fault episode in spec form; it maps onto
// fault.Window.
type FaultWindow struct {
	// Kind is the fault class: latency, ioerror, cmdfail, cmdtimeout,
	// dropout, or thermal.
	Kind  string   `json:"kind"`
	Start Duration `json:"start"`
	Dur   Duration `json:"dur"`
	// Factor multiplies IO service time (latency, thermal windows).
	Factor float64 `json:"factor,omitempty"`
	// Extra is added to IO latency (latency windows).
	Extra Duration `json:"extra,omitempty"`
	// Prob is the per-attempt transient failure probability (ioerror).
	Prob float64 `json:"prob,omitempty"`
}

// WorkloadSpec shapes an IO stream in spec form; it maps onto
// workload.Job.
type WorkloadSpec struct {
	// Op is "read" or "write".
	Op string `json:"op"`
	// Pattern is "seq" (default) or "rand".
	Pattern string `json:"pattern,omitempty"`
	// ChunkBytes is the IO size; must be a positive multiple of 512.
	ChunkBytes int64 `json:"chunk_bytes"`
	// Depth is the closed-loop queue depth.
	Depth int `json:"depth,omitempty"`
	// Arrival is "closed" (default), "poisson", or "uniform".
	Arrival string `json:"arrival,omitempty"`
	// RateIOPS is the open-loop arrival rate; required for open modes.
	RateIOPS float64 `json:"rate_iops,omitempty"`
	// Runtime and TotalBytes bound the job; at least one must be set.
	Runtime    Duration `json:"runtime,omitempty"`
	TotalBytes int64    `json:"total_bytes,omitempty"`
}

// FleetSpec parameterizes the fleet serving engine. Zero values take
// the fleet experiment's defaults (64 devices, 7000 IOPS per active
// device, the stepped curtail-and-recover budget).
type FleetSpec struct {
	// Profiles is the catalog profile mix; replica groups round-robin
	// over it. Default {"SSD2"}.
	Profiles []string `json:"profiles,omitempty"`
	// Size is the number of devices in the fleet. Default 64.
	Size int `json:"size,omitempty"`
	// Shards is the number of independent simulation shards (0 derives
	// a deterministic default from Size).
	Shards int `json:"shards,omitempty"`
	// Replicas is the mirror-group size; Active the serving count.
	Replicas int `json:"replicas,omitempty"`
	Active   int `json:"active,omitempty"`
	// RateIOPS is the open-loop arrival rate per active device.
	// Default 7000.
	RateIOPS float64 `json:"rate_iops,omitempty"`
	// Arrival is "poisson" (default) or "uniform".
	Arrival string `json:"arrival,omitempty"`
	// Read serves reads instead of writes; Seq sequential offsets.
	Read bool `json:"read,omitempty"`
	Seq  bool `json:"seq,omitempty"`
	// ChunkBytes, Depth, Batch, QueueCap shape each group's request
	// stream (serve.Spec defaults apply when zero).
	ChunkBytes int64 `json:"chunk_bytes,omitempty"`
	Depth      int   `json:"depth,omitempty"`
	Batch      int   `json:"batch,omitempty"`
	QueueCap   int   `json:"queue_cap,omitempty"`
	// ControlPeriod paces governors and budget accounting.
	ControlPeriod Duration `json:"control_period,omitempty"`
	// CapTolFrac is the budget-tracking tolerance fraction.
	CapTolFrac float64 `json:"cap_tol_frac,omitempty"`
	// Budget is the fleet power-budget schedule in serve.ParseSchedule
	// syntax ("0s:640,1s:448", "pd" suffix = per device). Empty takes
	// the fleet experiment's stepped curtail-and-recover default; "max"
	// asks for a never-binding budget.
	Budget string `json:"budget,omitempty"`
	// Arrivals is an optional piecewise-constant arrival-rate schedule
	// (a diurnal load curve): from each step's at onward every lane's
	// per-active-device rate is that step's rate_iops. The first step
	// must be at 0; a spec sets either rate_iops or arrivals, not both.
	Arrivals []RateStepSpec `json:"arrivals,omitempty"`
	// Churn schedules membership changes: scale-out events that admit
	// new replica groups mid-run (warming for warmup before they serve)
	// and scale-in events that drain and retire groups.
	Churn []ChurnEventSpec `json:"churn,omitempty"`
	// FaultFrac is the fraction of devices given a fault window drawn
	// from FaultSeed.
	FaultFrac float64 `json:"fault_frac,omitempty"`
	// Faults scripts explicit fault windows onto named fleet instances
	// (names are profile#index, e.g. "SSD2#00003").
	Faults []FleetFault `json:"faults,omitempty"`
	// SkipInvariants disables the per-shard cap/clock probes.
	SkipInvariants bool `json:"skip_invariants,omitempty"`
	// Meso enables the mesoscale aggregation tier: steady lanes leave
	// the event-driven simulation for a calibrated analytic aggregate
	// and rehydrate at control boundaries. Off when absent.
	Meso *MesoSpec `json:"meso,omitempty"`
	// Calib swaps learned device models for the fleet's mechanistic
	// simulators: every profile in the mix is calibrated against its
	// simulator (internal/calib) and materialized as a fitted device.
	// Off when absent.
	Calib *CalibSpec `json:"calib,omitempty"`
}

// MesoSpec parameterizes the hybrid mesoscale tier (serve.Spec's Meso
// fields). Its dwell and drift thresholds are constants of the tier.
type MesoSpec struct {
	// Enable turns the tier on; the other fields are ignored without it
	// so a spec can carry group settings while toggling the tier.
	Enable bool `json:"enable"`
	// GroupMin enables group-level parking: cohorts of at least this
	// many interchangeable members keep only a few resident probe lanes
	// and account the rest as shared analytic aggregates. 0 (default)
	// keeps every lane materialized.
	GroupMin int `json:"group_min,omitempty"`
	// Probes is the number of resident probe lanes per virtualized
	// cohort; meaningful only with GroupMin > 0. Default 2.
	Probes int `json:"probes,omitempty"`
}

// RateStepSpec is one step of a fleet arrival-rate schedule: from At
// onward, every lane's per-active-device rate is RateIOPS. It maps
// onto workload.RateStep.
type RateStepSpec struct {
	At       Duration `json:"at"`
	RateIOPS float64  `json:"rate_iops"`
}

// ChurnEventSpec is one scheduled fleet membership change in spec
// form; it maps onto serve.ChurnEvent. At At, Add replica groups of
// Profile join the fleet (warming for Warmup before they serve) and/or
// Remove groups of Profile drain and retire.
type ChurnEventSpec struct {
	At      Duration `json:"at"`
	Profile string   `json:"profile"`
	Add     int      `json:"add,omitempty"`
	Remove  int      `json:"remove,omitempty"`
	Warmup  Duration `json:"warmup,omitempty"`
}

// CalibSpec parameterizes the learned-device-model substitution: the
// calibration sweep bounds map onto calib.Options, and the fleet's
// profiles materialize as calib.FittedDevice instances instead of
// mechanistic simulators. Fits are memoized per (class, options), so a
// campaign grid re-running a calib scenario pays for each sweep once.
type CalibSpec struct {
	// Enable turns the substitution on; the other fields are ignored
	// without it.
	Enable bool `json:"enable"`
	// PointRuntime is each calibration cell's measured window.
	// Default 1.5 s.
	PointRuntime Duration `json:"point_runtime,omitempty"`
	// Warmup is the unmeasured steady-state lead-in per cell.
	// Default 600 ms.
	Warmup Duration `json:"warmup,omitempty"`
	// Seed drives the calibration sweep and the cross-validation
	// shuffle. Default 42.
	Seed uint64 `json:"seed,omitempty"`
	// Folds is the cross-validation fold count. Default 5.
	Folds int `json:"folds,omitempty"`
}

// FleetFault scripts fault windows onto one named fleet instance.
type FleetFault struct {
	Device  string        `json:"device"`
	Windows []FaultWindow `json:"windows"`
}

// ChaosSpec parameterizes the chaos experiment's four control-plane
// fault-recovery phases. Zero values take the published defaults.
type ChaosSpec struct {
	// GovBudgetW is the governor phase's device power budget (W).
	GovBudgetW float64 `json:"gov_budget_w,omitempty"`
	// GovControl is the governor's control period.
	GovControl Duration `json:"gov_control,omitempty"`
	// IOErrorProb is the governor phase's transient IO-error
	// probability inside its scripted window.
	IOErrorProb float64 `json:"io_error_prob,omitempty"`
	// Replicas and Active shape the redirector phase's mirror set.
	Replicas int `json:"replicas,omitempty"`
	Active   int `json:"active,omitempty"`
	// RateIOPS is the redirector phase's open-loop read rate.
	RateIOPS float64 `json:"rate_iops,omitempty"`
	// FleetBudgetW is the budget phase's two-device fleet budget (W).
	FleetBudgetW float64 `json:"fleet_budget_w,omitempty"`
	// Racks, LeavesPerRack, Staged, Restaged shape the rollout phase.
	Racks         int `json:"racks,omitempty"`
	LeavesPerRack int `json:"leaves_per_rack,omitempty"`
	Staged        int `json:"staged,omitempty"`
	Restaged      int `json:"restaged,omitempty"`
	// AuditThresholdW is the rollout power-audit threshold (W).
	AuditThresholdW float64 `json:"audit_threshold_w,omitempty"`
	// CapState is the power state the rollout enablement applies.
	CapState int `json:"cap_state,omitempty"`
}

// WithDefaults returns a copy with the published chaos defaults filled
// into zero fields. A nil receiver yields the full default set.
func (c *ChaosSpec) WithDefaults() ChaosSpec {
	var out ChaosSpec
	if c != nil {
		out = *c
	}
	if out.GovBudgetW == 0 {
		out.GovBudgetW = 11
	}
	if out.GovControl == 0 {
		out.GovControl = Duration(50 * time.Millisecond)
	}
	if out.IOErrorProb == 0 {
		out.IOErrorProb = 0.2
	}
	if out.Replicas == 0 {
		out.Replicas = 3
	}
	if out.Active == 0 {
		out.Active = 2
	}
	if out.RateIOPS == 0 {
		out.RateIOPS = 3000
	}
	if out.FleetBudgetW == 0 {
		out.FleetBudgetW = 22
	}
	if out.Racks == 0 {
		out.Racks = 2
	}
	if out.LeavesPerRack == 0 {
		out.LeavesPerRack = 3
	}
	if out.Staged == 0 {
		out.Staged = 4
	}
	if out.Restaged == 0 {
		out.Restaged = 2
	}
	if out.AuditThresholdW == 0 {
		out.AuditThresholdW = 12
	}
	if out.CapState == 0 {
		out.CapState = 2
	}
	return out
}

// Duration is a time.Duration that encodes as a JSON string ("250ms"),
// so spec files read the way the CLI flags do.
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON encodes the duration as its canonical string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON decodes a duration string; negative durations are
// rejected here so every later layer can assume non-negative times.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"250ms\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	if v < 0 {
		return fmt.Errorf("duration %q is negative", s)
	}
	*d = Duration(v)
	return nil
}

// Parse reads one spec with strict decoding: unknown or misspelled
// fields, trailing data, version skew, and semantic violations are all
// errors. The returned spec has passed Validate.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	// A second document (or any trailing garbage) means the file is not
	// one spec; refuse rather than silently ignore it.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// LoadFile parses and validates one spec file, attaching the path to
// any error.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sp, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// Canonical returns the spec's canonical encoding: fixed field order,
// two-space indent, trailing newline. parse(canonical(s)) == s, so
// canonical files double as golden inputs.
func (s *Spec) Canonical() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Clone returns a deep copy, so override layers (CLI flags) can
// mutate a built-in spec without aliasing it.
func (s *Spec) Clone() *Spec {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: clone marshal: %v", err)) // struct is always marshalable
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		panic(fmt.Sprintf("scenario: clone unmarshal: %v", err))
	}
	return &out
}

// pathErr builds a validation error that names the offending spec path.
func pathErr(path, format string, args ...any) error {
	return fmt.Errorf("scenario: %s: %s", path, fmt.Sprintf(format, args...))
}

// Validate runs every semantic check and fails with the offending
// path, e.g. `scenario: devices[2].faults[0].kind: unknown fault kind
// "dropped"`.
func (s *Spec) Validate() error {
	if s.Version != Version {
		if s.Version == 1 {
			return pathErr("version", "spec version 1 is outdated (this build reads version %d, which only added the grid stanza); set \"version\": %d", Version, Version)
		}
		return pathErr("version", "unsupported spec version %d (this build reads version %d)", s.Version, Version)
	}
	if strings.TrimSpace(s.Name) == "" {
		return pathErr("name", "scenario needs a name")
	}
	if strings.TrimSpace(s.Experiment) == "" {
		return pathErr("experiment", "scenario needs an experiment id (or \"all\")")
	}
	switch s.Scale {
	case "", "quick", "paper":
	default:
		return pathErr("scale", "unknown scale %q (quick or paper)", s.Scale)
	}
	if s.TotalBytes < 0 {
		return pathErr("total_bytes", "negative byte bound %d", s.TotalBytes)
	}
	for i, d := range s.Devices {
		if err := d.validate(fmt.Sprintf("devices[%d]", i)); err != nil {
			return err
		}
	}
	if s.Workload != nil {
		if err := s.Workload.validate("workload"); err != nil {
			return err
		}
	}
	if s.Fleet != nil {
		if err := s.validateFleet(); err != nil {
			return err
		}
	}
	if s.Chaos != nil {
		if err := s.Chaos.validate("chaos"); err != nil {
			return err
		}
	}
	if s.Grid != nil {
		if err := s.Grid.validate("grid", s); err != nil {
			return err
		}
		// Walk the expansion so cross-axis combinations that are
		// individually fine but jointly invalid (a fleet size not
		// divisible by a replica count, say) fail here with the point
		// named. Points carry no grid, so this cannot recurse.
		if _, err := s.expandPoints(); err != nil {
			return err
		}
	}
	return nil
}

func (d DeviceSpec) validate(path string) error {
	if !slices.Contains(catalog.Names(), d.Profile) {
		return pathErr(path+".profile", "unknown profile %q (have %s)", d.Profile, strings.Join(catalog.Names(), ", "))
	}
	if d.Count < 0 {
		return pathErr(path+".count", "negative count %d", d.Count)
	}
	if d.Count > maxDeviceCount {
		return pathErr(path+".count", "count %d exceeds the supported maximum %d", d.Count, maxDeviceCount)
	}
	for i, w := range d.Faults {
		if err := w.validate(fmt.Sprintf("%s.faults[%d]", path, i)); err != nil {
			return err
		}
	}
	return nil
}

func (w FaultWindow) validate(path string) error {
	if _, err := w.kind(); err != nil {
		return pathErr(path+".kind", "%v", err)
	}
	if w.Dur <= 0 {
		return pathErr(path+".dur", "fault window needs a positive duration, got %v", w.Dur.D())
	}
	if w.Prob < 0 || w.Prob > 1 {
		return pathErr(path+".prob", "probability %v out of [0, 1]", w.Prob)
	}
	if w.Factor < 0 {
		return pathErr(path+".factor", "negative factor %v", w.Factor)
	}
	return nil
}

// kind maps the spec's fault-kind string onto the fault package enum.
func (w FaultWindow) kind() (fault.Kind, error) {
	switch w.Kind {
	case "latency":
		return fault.LatencySpike, nil
	case "ioerror":
		return fault.IOError, nil
	case "cmdfail":
		return fault.PowerCmdFail, nil
	case "cmdtimeout":
		return fault.PowerCmdTimeout, nil
	case "dropout":
		return fault.Dropout, nil
	case "thermal":
		return fault.Thermal, nil
	}
	return 0, fmt.Errorf("unknown fault kind %q (latency, ioerror, cmdfail, cmdtimeout, dropout, thermal)", w.Kind)
}

// Window converts the spec window to the fault package's form.
func (w FaultWindow) Window() (fault.Window, error) {
	k, err := w.kind()
	if err != nil {
		return fault.Window{}, err
	}
	return fault.Window{
		Kind:   k,
		Start:  w.Start.D(),
		Dur:    w.Dur.D(),
		Factor: w.Factor,
		Extra:  w.Extra.D(),
		Prob:   w.Prob,
	}, nil
}

func (w *WorkloadSpec) validate(path string) error {
	switch w.Op {
	case "read", "write":
	default:
		return pathErr(path+".op", "op must be \"read\" or \"write\", got %q", w.Op)
	}
	switch w.Pattern {
	case "", "seq", "rand":
	default:
		return pathErr(path+".pattern", "pattern must be \"seq\" or \"rand\", got %q", w.Pattern)
	}
	if w.ChunkBytes <= 0 || w.ChunkBytes%512 != 0 {
		return pathErr(path+".chunk_bytes", "chunk size %d must be a positive multiple of 512", w.ChunkBytes)
	}
	switch w.Arrival {
	case "", "closed":
		if w.Depth <= 0 {
			return pathErr(path+".depth", "closed-loop workload needs a positive depth, got %d", w.Depth)
		}
	case "poisson", "uniform":
		if w.RateIOPS <= 0 {
			return pathErr(path+".rate_iops", "open-loop workload needs a positive rate, got %v", w.RateIOPS)
		}
	default:
		return pathErr(path+".arrival", "arrival must be \"closed\", \"poisson\", or \"uniform\", got %q", w.Arrival)
	}
	if w.Runtime <= 0 && w.TotalBytes <= 0 {
		return pathErr(path, "workload needs a positive runtime or total_bytes bound")
	}
	if w.TotalBytes < 0 {
		return pathErr(path+".total_bytes", "negative byte bound %d", w.TotalBytes)
	}
	return nil
}

// validateFleet checks the fleet stanza at the run's resolved horizon.
// The serving engine's own serve.Spec.Validate checks every fleet
// semantic it can see, on the stanza converted without fitting; its
// errors come back under the stanza's "fleet." path. What stays here is
// what that conversion resolves or drops: the size ceiling, the
// rate_iops/arrivals exclusion, arrival-kind names, fault-window kinds
// and fields, and the calib stanza.
func (s *Spec) validateFleet() error {
	f := s.Fleet
	if f.Size > maxFleetSize {
		return pathErr("fleet.size", "fleet size %d exceeds the supported maximum %d", f.Size, maxFleetSize)
	}
	if len(f.Arrivals) > 0 && f.RateIOPS != 0 {
		return pathErr("fleet.rate_iops", "rate_iops and arrivals are mutually exclusive (the schedule's first step sets the opening rate)")
	}
	switch f.Arrival {
	case "", "poisson", "uniform":
	default:
		return pathErr("fleet.arrival", "arrival must be \"poisson\" or \"uniform\", got %q", f.Arrival)
	}
	for i, ff := range f.Faults {
		for j, w := range ff.Windows {
			if err := w.validate(fmt.Sprintf("fleet.faults[%d].windows[%d]", i, j)); err != nil {
				return err
			}
		}
	}
	if c := f.Calib; c != nil {
		if c.PointRuntime.D() < 0 {
			return pathErr("fleet.calib.point_runtime", "negative cell runtime %v", c.PointRuntime.D())
		}
		if c.Warmup.D() < 0 {
			return pathErr("fleet.calib.warmup", "negative warmup %v", c.Warmup.D())
		}
		if c.Folds == 1 || c.Folds < 0 {
			return pathErr("fleet.calib.folds", "cross-validation needs at least 2 folds, got %d", c.Folds)
		}
	}
	ss, err := s.serveSpec(s.Horizon())
	if err != nil {
		return err
	}
	if err := ss.Validate(); err != nil {
		var fe *serve.FieldError
		if errors.As(err, &fe) {
			return pathErr("fleet."+fe.Path, "%s", fe.Msg)
		}
		return pathErr("fleet", "%v", err)
	}
	return nil
}

func (c *ChaosSpec) validate(path string) error {
	d := c.WithDefaults()
	if d.GovBudgetW < 0 || d.FleetBudgetW < 0 || d.AuditThresholdW < 0 {
		return pathErr(path, "negative power budget")
	}
	if d.IOErrorProb < 0 || d.IOErrorProb > 1 {
		return pathErr(path+".io_error_prob", "probability %v out of [0, 1]", d.IOErrorProb)
	}
	if d.Active > d.Replicas {
		return pathErr(path+".active", "active count %d exceeds replicas %d", d.Active, d.Replicas)
	}
	if d.RateIOPS < 0 {
		return pathErr(path+".rate_iops", "negative arrival rate %v", d.RateIOPS)
	}
	if c.Racks < 0 || c.LeavesPerRack < 0 || c.Staged < 0 || c.Restaged < 0 || c.CapState < 0 {
		return pathErr(path, "negative rollout shape")
	}
	if d.Racks > maxRolloutDim || d.LeavesPerRack > maxRolloutDim {
		return pathErr(path, "rollout shape %dx%d exceeds the supported maximum %d per dimension",
			d.Racks, d.LeavesPerRack, maxRolloutDim)
	}
	if d.Staged > d.Racks*d.LeavesPerRack {
		return pathErr(path+".staged", "cannot stage %d of %d leaves", d.Staged, d.Racks*d.LeavesPerRack)
	}
	return nil
}

// arrivalKind maps an arrival string ("" means the given default).
func arrivalKind(s string, def workload.Arrival) (workload.Arrival, error) {
	switch s {
	case "":
		return def, nil
	case "closed":
		return workload.Closed, nil
	case "poisson":
		return workload.OpenPoisson, nil
	case "uniform":
		return workload.OpenUniform, nil
	}
	return 0, fmt.Errorf("unknown arrival kind %q", s)
}
