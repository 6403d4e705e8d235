package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"wattio/internal/grid"
	"wattio/internal/serve"
)

// maxCampaignPoints bounds a grid's expansion: a spec that passes
// Validate must always be cheap enough to expand, and a campaign that
// large should be split rather than run as one family.
const maxCampaignPoints = 4096

// GridSpec is the version-2 campaign stanza: each populated axis lists
// the values one fleet knob sweeps over, and the spec expands into the
// full cross-product of every populated axis. Axis order is fixed
// (budgets, fleet_sizes, fault_seeds) and
// expansion is lexicographic in that order, so a campaign's point
// family — names, ordering, and per-point seeds — is a pure function of
// the spec.
type GridSpec struct {
	// Budgets lists budget schedules in serve.ParseSchedule syntax
	// ("0s:14.6pd,1s:11pd"), or "max" for a never-binding budget.
	Budgets []string `json:"budgets,omitempty"`
	// FleetSizes lists fleet device counts.
	FleetSizes []int `json:"fleet_sizes,omitempty"`
	// FaultSeeds lists fault-injection seeds: each value replaces the
	// spec's fault_seed, replaying the same traffic under a different
	// fault draw.
	FaultSeeds []uint64 `json:"fault_seeds,omitempty"`
}

// Axis describes one populated grid axis: its short key (used in point
// labels and seed derivation), its spec path (used in errors), and its
// value count.
type Axis struct {
	Key  string
	Path string
	Len  int
}

// gridAxis couples an Axis with the closure that applies one of its
// values to a point spec.
type gridAxis struct {
	Axis
	apply func(sp *Spec, i int)
}

// axes returns the populated axes in their fixed expansion order.
// Axis keys feed point labels and seed derivation, so they are part of
// the determinism contract: renaming one would renumber every
// campaign's seeds.
func (g *GridSpec) axes() []gridAxis {
	var out []gridAxis
	if g.Budgets != nil {
		out = append(out, gridAxis{
			Axis:  Axis{Key: "b", Path: "grid.budgets", Len: len(g.Budgets)},
			apply: func(sp *Spec, i int) { sp.Fleet.Budget = g.Budgets[i] },
		})
	}
	if g.FleetSizes != nil {
		out = append(out, gridAxis{
			Axis:  Axis{Key: "n", Path: "grid.fleet_sizes", Len: len(g.FleetSizes)},
			apply: func(sp *Spec, i int) { sp.Fleet.Size = g.FleetSizes[i] },
		})
	}
	if g.FaultSeeds != nil {
		out = append(out, gridAxis{
			Axis:  Axis{Key: "fs", Path: "grid.fault_seeds", Len: len(g.FaultSeeds)},
			apply: func(sp *Spec, i int) { sp.FaultSeed = g.FaultSeeds[i] },
		})
	}
	return out
}

// Axes lists the populated axes in expansion order — the campaign
// executor reports the grid shape from it.
func (g *GridSpec) Axes() []Axis {
	ga := g.axes()
	out := make([]Axis, len(ga))
	for i, a := range ga {
		out[i] = a.Axis
	}
	return out
}

// validate runs the axis-level checks: a present axis must be
// non-empty, its values must be individually valid and pairwise
// distinct (budget schedules compare by canonical serve.ScheduleKey, so
// two spellings of one schedule are duplicates), and the expansion must
// stay under maxCampaignPoints. Cross-axis constraints (for example a
// fleet size not divisible by a replica count) are caught by the
// per-point validation that expansion runs afterwards.
func (g *GridSpec) validate(path string, s *Spec) error {
	if len(g.axes()) == 0 {
		return pathErr(path, "grid needs at least one axis (budgets, fleet_sizes, fault_seeds)")
	}
	if s.Experiment != "fleet" {
		return pathErr(path, "grid campaigns sweep fleet knobs and need experiment \"fleet\", got %q", s.Experiment)
	}
	if g.Budgets != nil {
		if err := axisValues(path+".budgets", g.Budgets, func(b string) (string, error) {
			if b == "max" {
				return "max", nil
			}
			return serve.ScheduleKey(b)
		}); err != nil {
			return err
		}
	}
	if g.FleetSizes != nil {
		if err := axisValues(path+".fleet_sizes", g.FleetSizes, func(n int) (string, error) {
			if n < 1 {
				return "", fmt.Errorf("fleet size %d must be positive", n)
			}
			if n > maxFleetSize {
				return "", fmt.Errorf("fleet size %d exceeds the supported maximum %d", n, maxFleetSize)
			}
			return strconv.Itoa(n), nil
		}); err != nil {
			return err
		}
	}
	if g.FaultSeeds != nil {
		if err := axisValues(path+".fault_seeds", g.FaultSeeds, func(v uint64) (string, error) {
			return strconv.FormatUint(v, 10), nil
		}); err != nil {
			return err
		}
	}
	lens := make([]int, 0, 3)
	for _, a := range g.axes() {
		lens = append(lens, a.Len)
	}
	if n, ok := grid.Product(lens, maxCampaignPoints); !ok {
		return pathErr(path, "expansion exceeds the %d-point campaign ceiling", maxCampaignPoints)
	} else if n == 0 {
		// Unreachable once empty axes are rejected, but keep expansion
		// honest if that ever changes.
		return pathErr(path, "grid expands to zero points")
	}
	return nil
}

// axisValues checks one axis: every value passes check (which also
// returns the value's canonical key), and no two values share a key.
func axisValues[T any](path string, vals []T, check func(T) (string, error)) error {
	if len(vals) == 0 {
		return pathErr(path, "axis present but empty (omit the field or list at least one value)")
	}
	seen := make(map[string]int, len(vals))
	for i, v := range vals {
		key, err := check(v)
		if err != nil {
			return pathErr(fmt.Sprintf("%s[%d]", path, i), "%v", err)
		}
		if j, dup := seen[key]; dup {
			return pathErr(fmt.Sprintf("%s[%d]", path, i), "duplicates %s[%d] (%v)", path, j, v)
		}
		seen[key] = i
	}
	return nil
}

// GridPoint is one expanded campaign point: its label (axis keys and
// coordinates, e.g. "b1-n0-fs2"), its grid coordinates in axis order,
// and the fully-resolved version-2 point spec (grid stanza stripped,
// axis values applied, seed derived).
type GridPoint struct {
	Label  string
	Coords []int
	Spec   *Spec
}

// Expand expands the spec into its deterministically-ordered campaign
// family: the cross-product of every populated grid axis, lexicographic
// in grid coordinates. Each point spec is named
// "<campaign>/<label>", carries the axis values of its coordinates, and
// derives its seed from the campaign seed plus its coordinates (see
// PointSeed) — so appending an axis, or appending values to an existing
// axis, never perturbs the seeds of the points that already existed. A
// spec without a grid expands to its single point unchanged.
func (s *Spec) Expand() ([]GridPoint, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.expandPoints()
}

// expandPoints does the expansion proper, validating each resolved
// point; Validate calls it (through gridded specs) so an invalid
// cross-axis combination is a validation error with the point named,
// and Expand calls it after Validate.
func (s *Spec) expandPoints() ([]GridPoint, error) {
	if s.Grid == nil {
		return []GridPoint{{Label: s.Name, Spec: s.Clone()}}, nil
	}
	axes := s.Grid.axes()
	lens := make([]int, len(axes))
	keys := make([]string, len(axes))
	for i, a := range axes {
		lens[i] = a.Len
		keys[i] = a.Key
	}
	coords := grid.Coords(lens)
	out := make([]GridPoint, 0, len(coords))
	for _, c := range coords {
		pt := s.Clone()
		pt.Grid = nil
		if pt.Fleet == nil {
			pt.Fleet = &FleetSpec{}
		}
		var label strings.Builder
		for ai, a := range axes {
			a.apply(pt, c[ai])
			if ai > 0 {
				label.WriteByte('-')
			}
			label.WriteString(a.Key)
			label.WriteString(strconv.Itoa(c[ai]))
		}
		pt.Name = s.Name + "/" + label.String()
		pt.Seed = PointSeed(s.Seed, keys, c)
		if err := pt.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: grid point %s: %w", label.String(), err)
		}
		out = append(out, GridPoint{Label: label.String(), Coords: c, Spec: pt})
	}
	return out, nil
}

// PointSeed derives a grid point's workload seed from the campaign seed
// and the point's grid coordinates. Each axis at a non-zero coordinate
// contributes a mix of its key and index; axes sitting at coordinate 0
// contribute nothing, so appending a new axis (every existing point
// lands at its coordinate 0) or appending values to an existing axis
// never changes the seeds of points that already existed. Contributions
// are XOR-folded, so the derivation is independent of axis order too.
func PointSeed(campaign uint64, axisKeys []string, coords []int) uint64 {
	s := campaign
	for ai, c := range coords {
		if c == 0 {
			continue
		}
		h := uint64(14695981039346656037) // FNV-1a offset basis
		for _, b := range []byte(axisKeys[ai]) {
			h = (h ^ uint64(b)) * 1099511628211
		}
		h = (h ^ uint64(c)) * 1099511628211
		s ^= mix64(h)
	}
	return s
}

// mix64 is the splitmix64 finalizer: full-avalanche mixing so nearby
// (axis, index) pairs land on well-separated seeds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
