package adaptive

import (
	"fmt"
	"sort"

	"wattio/internal/device"
)

// Domain is one node of the data-center power hierarchy (§4.1): a rack,
// a sub-rack power domain behind a breaker, or any intermediate level.
// Devices hang off leaf domains.
type Domain struct {
	Name     string
	BreakerW float64 // breaker rating; 0 means unmonitored
	Children []*Domain
	Devices  []device.Device
}

// Power returns the domain's instantaneous draw, recursively. Capped
// devices legitimately spike above their cap between throttle quanta,
// so compliance checks should prefer window averages via EnergyJ.
func (d *Domain) Power() float64 {
	var sum float64
	for _, dev := range d.Devices {
		sum += dev.InstantPower()
	}
	for _, c := range d.Children {
		sum += c.Power()
	}
	return sum
}

// EnergyJ returns the domain's cumulative energy, recursively; window
// averages are energy deltas over elapsed virtual time.
func (d *Domain) EnergyJ() float64 {
	var sum float64
	for _, dev := range d.Devices {
		sum += dev.EnergyJ()
	}
	for _, c := range d.Children {
		sum += c.EnergyJ()
	}
	return sum
}

// Leaves returns the leaf domains in definition order.
func (d *Domain) Leaves() []*Domain {
	if len(d.Children) == 0 {
		return []*Domain{d}
	}
	var out []*Domain
	for _, c := range d.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Violation reports a domain whose draw exceeds its breaker rating.
type Violation struct {
	Domain *Domain
	PowerW float64
}

// CheckBreakers walks the hierarchy and reports every domain over its
// breaker rating. A power-adaptive system that fails to shed load shows
// up here before the physical breaker trips.
func (d *Domain) CheckBreakers() []Violation {
	var out []Violation
	if d.BreakerW > 0 {
		if p := d.Power(); p > d.BreakerW {
			out = append(out, Violation{Domain: d, PowerW: p})
		}
	}
	for _, c := range d.Children {
		out = append(out, c.CheckBreakers()...)
	}
	return out
}

// Rollout plans the incremental deployment of power-adaptive control
// below the lowest tier of the power hierarchy (§4.1): enable a few
// leaf domains at a time, spread across parents so coordinated control
// failures cannot concentrate in a single breaker domain. Leaves whose
// power audits fail are quarantined: disabled and excluded from every
// later Stage call until explicitly reinstated.
type Rollout struct {
	root        *Domain
	enabled     map[*Domain]bool
	quarantined map[*Domain]bool
}

// NewRollout starts a rollout over the hierarchy with nothing enabled.
func NewRollout(root *Domain) *Rollout {
	return &Rollout{
		root:        root,
		enabled:     make(map[*Domain]bool),
		quarantined: make(map[*Domain]bool),
	}
}

// Enabled reports whether a leaf domain runs power-adaptive control.
func (r *Rollout) Enabled(d *Domain) bool { return r.enabled[d] }

// EnabledCount returns how many leaf domains are enabled.
func (r *Rollout) EnabledCount() int { return len(r.enabled) }

// Stage enables up to n more leaf domains and returns them. Selection
// spreads across parent domains round-robin: the parent with the fewest
// enabled children goes first, so no single power domain concentrates
// the deployment.
func (r *Rollout) Stage(n int) []*Domain {
	if n <= 0 {
		return nil
	}
	type bucket struct {
		parent  *Domain
		pending []*Domain
		on      int
	}
	var buckets []*bucket
	var walk func(d *Domain)
	walk = func(d *Domain) {
		leafChildren := bucket{parent: d}
		for _, c := range d.Children {
			if len(c.Children) == 0 {
				switch {
				case r.enabled[c]:
					leafChildren.on++
				case r.quarantined[c]:
					// Quarantined leaves neither count as deployed nor
					// re-enter the pending pool.
				default:
					leafChildren.pending = append(leafChildren.pending, c)
				}
			} else {
				walk(c)
			}
		}
		if leafChildren.on > 0 || len(leafChildren.pending) > 0 {
			b := leafChildren
			buckets = append(buckets, &b)
		}
	}
	walk(r.root)
	if len(r.root.Children) == 0 && !r.enabled[r.root] && !r.quarantined[r.root] {
		// Degenerate hierarchy: the root is itself a leaf.
		buckets = append(buckets, &bucket{parent: r.root, pending: []*Domain{r.root}})
	}

	var out []*Domain
	for len(out) < n {
		// Pick the bucket with the fewest enabled children that still
		// has pending leaves; ties break by name for determinism.
		sort.SliceStable(buckets, func(i, j int) bool {
			if buckets[i].on != buckets[j].on {
				return buckets[i].on < buckets[j].on
			}
			return buckets[i].parent.Name < buckets[j].parent.Name
		})
		picked := false
		for _, b := range buckets {
			if len(b.pending) == 0 {
				continue
			}
			leaf := b.pending[0]
			b.pending = b.pending[1:]
			b.on++
			r.enabled[leaf] = true
			out = append(out, leaf)
			picked = true
			break
		}
		if !picked {
			break // everything enabled
		}
	}
	return out
}

// Halt disables a leaf domain (e.g., after a control failure) so the
// next Stage call will not count it as deployed.
func (r *Rollout) Halt(d *Domain) error {
	if !r.enabled[d] {
		return fmt.Errorf("adaptive: domain %s is not enabled", d.Name)
	}
	delete(r.enabled, d)
	return nil
}

// Quarantine disables an enabled leaf domain and bars it from future
// Stage calls — the response to a failed power audit (§4.1): a domain
// that demonstrably cannot control its power must not be retried
// blindly at the next rollout step.
func (r *Rollout) Quarantine(d *Domain) error {
	if !r.enabled[d] {
		return fmt.Errorf("adaptive: domain %s is not enabled", d.Name)
	}
	delete(r.enabled, d)
	r.quarantined[d] = true
	return nil
}

// AuditAndQuarantine audits the enabled leaves and quarantines every
// failing one, returning them (sorted by name). This is the §4.1
// containment loop in one call: identify local control failures, then
// fence them off before they threaten a breaker budget.
func (r *Rollout) AuditAndQuarantine(measure func(*Domain) float64, expectedW float64) []*Domain {
	failing := r.Audit(measure, expectedW)
	for _, d := range failing {
		r.Quarantine(d)
	}
	return failing
}

// Audit returns the enabled leaf domains whose measured power exceeds
// expectedW — §4.1's "local failures of the storage system to control
// power can safely be identified before a failure threatens to exceed
// the power budget of rack-level breakers." measure reports each
// domain's power; pass a window-average measurement, not an
// instantaneous sample, because capped devices spike between throttle
// quanta.
func (r *Rollout) Audit(measure func(*Domain) float64, expectedW float64) []*Domain {
	var out []*Domain
	for d := range r.enabled {
		if measure(d) > expectedW {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
