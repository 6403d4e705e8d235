// Package scenario is the declarative layer over a run: one typed,
// versioned spec holds the experiment id, scale and bounds, seeds, the
// fleet stanza (device mix, arrivals, budget schedule, churn, faults,
// tiers) and an optional campaign grid. The paper's tables and figures
// fix their own drives and fio-style jobs in code, so they read only
// the spec's seed and bounds; a spec holds nothing that no run reads.
//
// The pipeline is: JSON file → Parse (strict: unknown fields are
// rejected) → Validate (semantic checks that fail loudly with the
// offending path) → builders (ServeSpec, Expand). A fleet stanza is
// validated by the serving engine's own serve.Spec.Validate at the
// run's resolved horizon (Horizon: the spec's runtime, else its
// scale's), so a spec that validates never fails in serve.Run.
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
	"strings"
	"time"

	"wattio/internal/fault"
	"wattio/internal/serve"
)

// Version is the spec schema version this package reads and writes.
// Parse rejects any other version so stale tooling fails loudly
// instead of silently dropping fields. Version 2 only added the
// campaign grid stanza, so a version-1 spec migrates by setting its
// version field to 2.
const Version = 2

// The virtual run length and per-point byte bound a spec gets from its
// scale when it sets no runtime or total_bytes of its own. Paper scale
// is the published methodology (one minute or 4 GiB per point); quick
// scale runs the whole suite in seconds.
const (
	QuickRuntime = 2 * time.Second
	PaperRuntime = time.Minute
	QuickBytes   = 256 << 20
	PaperBytes   = 4 << 30
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

// Bytes returns the run's resolved per-point byte bound: the spec's
// total_bytes when set, else its scale's.
func (s *Spec) Bytes() int64 {
	switch {
	case s.TotalBytes > 0:
		return s.TotalBytes
	case s.Scale == "paper":
		return PaperBytes
	}
	return QuickBytes
}

// maxFleetSize admits million-device fleets: with the group-parked
// meso tier the builder materializes only probes and faulted members,
// and validation's cost does not grow with the fleet size (see
// serve.Spec.Validate), so the bound is a sanity rail rather than a
// cost ceiling.
const maxFleetSize = 1 << 24

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

	// Fleet parameterizes the serving engine (experiment "fleet").
	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Grid is the campaign stanza (new in version 2): each populated
	// axis lists values one fleet knob sweeps over, and Expand resolves
	// the spec into the named cross-product family of point specs.
	Grid *GridSpec `json:"grid,omitempty"`
}

// FaultWindow is one scripted fault episode in spec form; it maps onto
// fault.Window.
type FaultWindow struct {
	// Kind is the fault class: ioerror, cmdfail, or dropout.
	Kind  string   `json:"kind"`
	Start Duration `json:"start"`
	Dur   Duration `json:"dur"`
	// Prob is the per-attempt transient failure probability (ioerror).
	Prob float64 `json:"prob,omitempty"`
}

// FleetSpec parameterizes the fleet serving engine. Zero values take
// the fleet experiment's defaults (64 devices, 7000 IOPS per serving
// device, the stepped curtail-and-recover budget). Every lane serves
// Poisson arrivals of 256 KiB random writes at depth 64, the shape the
// engine's planning models were measured at (see serve.Spec), with the
// per-shard cap probe attached.
type FleetSpec struct {
	// Profiles is the catalog profile mix; replica groups round-robin
	// over it. Default {"SSD2"}.
	Profiles []string `json:"profiles,omitempty"`
	// Size is the number of devices in the fleet. Default 64.
	Size int `json:"size,omitempty"`
	// Replicas is the mirror-group size; replicas-1 of each group (at
	// least 1) serve.
	Replicas int `json:"replicas,omitempty"`
	// RateIOPS is the Poisson arrival rate per serving device.
	// Default 7000.
	RateIOPS float64 `json:"rate_iops,omitempty"`
	// ControlPeriod paces governors and budget accounting.
	ControlPeriod Duration `json:"control_period,omitempty"`
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

// CalibSpec turns on the learned-device-model substitution: each of
// the fleet's profiles is fitted by calib.FitClass with its default
// sweep (calib.Options{}) and materializes as calib.FittedDevice
// instances instead of mechanistic simulators. Fits are memoized per
// class, so a campaign grid re-running a calib scenario pays for each
// sweep once.
type CalibSpec struct {
	// Enable turns the substitution on.
	Enable bool `json:"enable"`
}

// FleetFault scripts fault windows onto one named fleet instance.
type FleetFault struct {
	Device  string        `json:"device"`
	Windows []FaultWindow `json:"windows"`
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
// path, e.g. `scenario: fleet.faults[0].windows[2].kind: unknown fault
// kind "dropped"`.
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
	if s.Fleet != nil {
		if err := s.validateFleet(); err != nil {
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
	return nil
}

// kind maps the spec's fault-kind string onto the fault package enum.
func (w FaultWindow) kind() (fault.Kind, error) {
	switch w.Kind {
	case "ioerror":
		return fault.IOError, nil
	case "cmdfail":
		return fault.PowerCmdFail, nil
	case "dropout":
		return fault.Dropout, nil
	}
	return 0, fmt.Errorf("unknown fault kind %q (ioerror, cmdfail, dropout)", w.Kind)
}

// window converts the spec window to the fault package's form.
func (w FaultWindow) window() (fault.Window, error) {
	k, err := w.kind()
	if err != nil {
		return fault.Window{}, err
	}
	return fault.Window{
		Kind:  k,
		Start: w.Start.D(),
		Dur:   w.Dur.D(),
		Prob:  w.Prob,
	}, nil
}

// validateFleet checks the fleet stanza at the run's resolved horizon.
// The serving engine's own serve.Spec.Validate checks every fleet
// semantic it can see, on the stanza converted without fitting; its
// errors come back under the stanza's "fleet." path. What stays here is
// what that conversion resolves or drops: the size ceiling, the
// rate_iops/arrivals exclusion, and fault-window kinds and fields.
func (s *Spec) validateFleet() error {
	f := s.Fleet
	if f.Size > maxFleetSize {
		return pathErr("fleet.size", "fleet size %d exceeds the supported maximum %d", f.Size, maxFleetSize)
	}
	if len(f.Arrivals) > 0 && f.RateIOPS != 0 {
		return pathErr("fleet.rate_iops", "rate_iops and arrivals are mutually exclusive (the schedule's first step sets the opening rate)")
	}
	for i, ff := range f.Faults {
		for j, w := range ff.Windows {
			if err := w.validate(fmt.Sprintf("fleet.faults[%d].windows[%d]", i, j)); err != nil {
				return err
			}
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
