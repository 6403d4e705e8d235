// Package adaptive implements the power-adaptive storage-system
// mechanisms the paper's §4 derives from its measurements:
//
//   - power-aware IO redirection to a subset of active replicas so
//     inactive devices maximize standby residency (cf. SRCMap),
//   - asymmetric IO placement that segregates writes onto a small
//     uncapped set while power-capping read-mostly devices,
//   - tiered write absorption, where an SSD masks an HDD's multi-second
//     spin-up by absorbing writes into a log,
//   - a budget controller that turns a fleet power budget into concrete
//     power states and IO shapes using the core power-throughput models,
//   - and a sub-rack incremental rollout plan with breaker-level safety
//     checks (§4.1).
package adaptive

import (
	"errors"
	"fmt"
	"slices"

	"wattio/internal/device"
	"wattio/internal/telemetry"
)

// Redirector routes IO across N devices holding replicated data,
// keeping only an active subset spinning/awake so the rest accumulate
// standby time. Reads and writes go to the least-loaded active replica;
// standby replicas are resynchronized on activation (modeled as
// instantaneous, as SRCMap's background sync is off the data path).
//
// Replicas can drop out (a fault-injected brownout, a pulled drive);
// the redirector routes around unhealthy replicas (device.Healthy) and
// drains load back naturally once they recover, since selection is by
// current outstanding depth.
//
// Redirector implements device.Device so workloads and measurement rigs
// compose with it; power-control methods act on the ensemble.
type Redirector struct {
	name        string
	devs        []device.Device
	active      []bool
	outstanding []int
	completed   []int

	// WakesOnDemand counts IOs that arrived when no replica was
	// active and forced a wake — QoS violations in SRCMap terms.
	WakesOnDemand int
	// Failovers counts IOs routed away from an active replica because
	// it was unhealthy at submission time.
	Failovers int

	cFailovers *telemetry.Counter

	// free pools completion records, so a steady stream of mirrored IO
	// submits without allocating; it never grows past the ensemble's
	// peak outstanding count.
	free *mirrorDone
}

// mirrorDone is one submitted IO's completion record: the replica it
// went to and the caller's callback. fn is bound once per record, so
// reuse changes only the fields.
type mirrorDone struct {
	r    *Redirector
	i    int
	done func()
	fn   func()
	next *mirrorDone
}

func (m *mirrorDone) run() {
	// Copy out and recycle first: done may submit again and take this
	// very record.
	r, i, done := m.r, m.i, m.done
	m.done = nil
	m.next = r.free
	r.free = m
	r.outstanding[i]--
	r.completed[i]++
	done()
}

// NewRedirector builds a redirector over replicas of equal capacity,
// with the first k devices active and the rest in standby.
func NewRedirector(name string, devs []device.Device, k int) (*Redirector, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("adaptive: redirector needs devices")
	}
	if k < 1 || k > len(devs) {
		return nil, fmt.Errorf("adaptive: active count %d out of [1, %d]", k, len(devs))
	}
	cap0 := devs[0].CapacityBytes()
	for _, d := range devs[1:] {
		if d.CapacityBytes() != cap0 {
			return nil, fmt.Errorf("adaptive: replica capacities differ (%d vs %d)", d.CapacityBytes(), cap0)
		}
	}
	r := &Redirector{
		name:        name,
		devs:        devs,
		active:      make([]bool, len(devs)),
		outstanding: make([]int, len(devs)),
		completed:   make([]int, len(devs)),

		cFailovers: telemetry.Default().Counter("redirect_failovers_total"),
	}
	for i := range devs {
		r.active[i] = i < k
	}
	return r, r.applyStandby()
}

// applyStandby drives every replica toward its active/standby target.
// It keeps going past per-replica failures (a dropped replica cannot be
// woken, but that must not strand its siblings) and returns the joined
// errors; the active-set bookkeeping stands regardless, so a failed
// replica rejoins when it recovers and the next transition retries it.
func (r *Redirector) applyStandby() error {
	var errs []error
	for i, d := range r.devs {
		if r.active[i] {
			if err := d.Wake(); err != nil && err != device.ErrNotSupported {
				errs = append(errs, fmt.Errorf("adaptive: waking %s: %w", d.Name(), err))
			}
		} else {
			if err := d.EnterStandby(); err != nil && err != device.ErrNotSupported {
				errs = append(errs, fmt.Errorf("adaptive: standing down %s: %w", d.Name(), err))
			}
		}
	}
	return errors.Join(errs...)
}

// SetActive resizes the active set to k replicas, waking or standing
// down devices at the set boundary.
func (r *Redirector) SetActive(k int) error {
	if k < 1 || k > len(r.devs) {
		return fmt.Errorf("adaptive: active count %d out of [1, %d]", k, len(r.devs))
	}
	for i := range r.devs {
		r.active[i] = i < k
	}
	return r.applyStandby()
}

// pick returns the least-loaded healthy active replica index, and
// whether an unhealthy active replica had to be skipped to find it.
// It returns -1 if no active replica is healthy.
func (r *Redirector) pick() (best int, skippedUnhealthy bool) {
	best = -1
	for i := range r.devs {
		if !r.active[i] {
			continue
		}
		if !device.Healthy(r.devs[i]) {
			skippedUnhealthy = true
			continue
		}
		if best < 0 || r.outstanding[i] < r.outstanding[best] {
			best = i
		}
	}
	return best, skippedUnhealthy
}

// Submit implements device.Device: the request goes to the least-loaded
// healthy active replica, failing over past dropped replicas. If no
// active replica is available, a healthy standby replica is woken on
// demand and the wake is counted; if every replica is unhealthy the
// least-loaded one takes the IO anyway (it stalls there until the
// replica recovers — the data exists nowhere else).
func (r *Redirector) Submit(req device.Request, done func()) {
	i, skipped := r.pick()
	if i < 0 {
		r.WakesOnDemand++
		for j := range r.devs {
			if device.Healthy(r.devs[j]) && (i < 0 || r.outstanding[j] < r.outstanding[i]) {
				i = j
			}
		}
		if i < 0 {
			// Total outage: park the IO on the least-loaded replica.
			for j := range r.devs {
				if i < 0 || r.outstanding[j] < r.outstanding[i] {
					i = j
				}
			}
		}
	}
	if skipped {
		r.Failovers++
		r.cFailovers.Inc()
	}
	r.outstanding[i]++
	m := r.free
	if m == nil {
		m = &mirrorDone{r: r}
		m.fn = m.run
	} else {
		r.free = m.next
	}
	m.i, m.done = i, done
	r.devs[i].Submit(req, m.fn)
}

// CompletedByReplica returns per-replica completion counts, indexed
// like the replicas passed to NewRedirector. Chaos experiments use the
// deltas to show load draining back onto a recovered replica.
func (r *Redirector) CompletedByReplica() []int {
	out := make([]int, len(r.completed))
	copy(out, r.completed)
	return out
}

// Name implements device.Device.
func (r *Redirector) Name() string { return r.name }

// Model implements device.Device.
func (r *Redirector) Model() string { return fmt.Sprintf("redirector over %d replicas", len(r.devs)) }

// Protocol implements device.Device; it reports the replicas' protocol.
func (r *Redirector) Protocol() device.Protocol { return r.devs[0].Protocol() }

// CapacityBytes implements device.Device: the logical capacity is one
// replica's (the data is mirrored).
func (r *Redirector) CapacityBytes() int64 { return r.devs[0].CapacityBytes() }

// InstantPower implements device.Device as the ensemble total.
func (r *Redirector) InstantPower() float64 {
	var sum float64
	for _, d := range r.devs {
		sum += d.InstantPower()
	}
	return sum
}

// EnergyJ implements device.Device as the ensemble total.
func (r *Redirector) EnergyJ() float64 {
	var sum float64
	for _, d := range r.devs {
		sum += d.EnergyJ()
	}
	return sum
}

// PowerStates implements device.Device; the ensemble exposes no
// NVMe-style states (use SetActive for coarse control).
func (r *Redirector) PowerStates() []device.PowerState { return nil }

// SetPowerState implements device.Device.
func (r *Redirector) SetPowerState(int) error { return device.ErrNotSupported }

// PowerStateIndex implements device.Device.
func (r *Redirector) PowerStateIndex() int { return 0 }

// EnterStandby implements device.Device by standing down every replica.
func (r *Redirector) EnterStandby() error {
	for i := range r.active {
		r.active[i] = false
	}
	return r.applyStandby()
}

// Wake implements device.Device by restoring one active replica.
func (r *Redirector) Wake() error { return r.SetActive(1) }

// Standby implements device.Device: true when no replica is active.
func (r *Redirector) Standby() bool { return !slices.Contains(r.active, true) }

// Settled implements device.Device: true when every replica's standby
// or wake transition has finished.
func (r *Redirector) Settled() bool {
	for _, d := range r.devs {
		if !d.Settled() {
			return false
		}
	}
	return true
}

var _ device.Device = (*Redirector)(nil)
