package serve

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"wattio/internal/calib"
	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/fault"
	"wattio/internal/sim"
)

// InstanceName is the canonical name of fleet device i of a profile —
// the key planning models, governors, and fault scripts address it by:
// fmt's "%s#%05d".
func InstanceName(profile string, i int) string {
	var buf [32]byte
	return string(appendIndex(append(append(buf[:0], profile...), '#'), i))
}

// label is prefix followed by i as fmt's "%05d" formats it: the name of
// a fleet lane's streams and redirector.
func label(prefix string, i int) string {
	var buf [32]byte
	return string(appendIndex(append(buf[:0], prefix...), i))
}

// appendIndex appends i to b as fmt's "%05d" does: in decimal, its sign
// and digits zero-padded to five characters. Fleet set-up names every
// device and lane, and fmt would box both arguments of each name.
func appendIndex(b []byte, i int) []byte {
	var num [20]byte
	d := strconv.AppendInt(num[:0], int64(i), 10)
	w := len(d)
	if d[0] == '-' {
		b, d = append(b, '-'), d[1:]
	}
	for ; w < 5; w++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// parseInstanceName is InstanceName's inverse: it splits a fleet
// instance name into its profile and device index, rejecting anything
// that InstanceName could not have produced. Validate uses it to check
// fault-script targets in O(1) instead of enumerating every instance
// name of the fleet.
func parseInstanceName(name string) (profile string, i int, err error) {
	profile, idx, ok := strings.Cut(name, "#")
	if !ok || profile == "" || len(idx) < 5 {
		return "", 0, fmt.Errorf("instance name %q is not profile#index (e.g. %q)", name, InstanceName("SSD2", 0))
	}
	i, err = strconv.Atoi(idx)
	if err != nil || i < 0 || InstanceName(profile, i) != name {
		return "", 0, fmt.Errorf("instance name %q is not profile#index (e.g. %q)", name, InstanceName("SSD2", 0))
	}
	return profile, i, nil
}

// profileOf is the catalog profile of fleet device i in a normalized
// spec: replica groups round-robin over the profile mix.
func (s *Spec) profileOf(i int) string {
	return s.Profiles[(i/s.Replicas)%len(s.Profiles)]
}

// scriptedFaults indexes a spec's fault scripts by instance name.
func scriptedFaults(sp *Spec) map[string][]fault.Window {
	if len(sp.Faults) == 0 {
		return nil
	}
	m := make(map[string][]fault.Window, len(sp.Faults))
	for _, df := range sp.Faults {
		m[df.Device] = append(m[df.Device], df.Windows...)
	}
	return m
}

// preFault is one pre-drawn fault outcome: the windows and the
// instance's retained fault stream (the inject sub-stream must derive
// from the same position the draw left it at).
type preFault struct {
	wins []fault.Window
	ds   *sim.RNG
}

// drawFaults resolves the fault outcome of every device in a shard's
// group range before any device exists, returning the faulted ones by
// device index (nil when the spec injects no faults). The draws run for
// ALL members in ascending instance order, each from its own stream
// frng.Stream(name), so the draw a member receives is independent of
// how many members end up materialized: group mode builds only some.
func drawFaults(sp *Spec, frng *sim.RNG, rg shardRange) map[int]*preFault {
	scripted := scriptedFaults(sp)
	if sp.FaultFrac == 0 && len(scripted) == 0 {
		return nil
	}
	pre := map[int]*preFault{}
	for g := rg.g0; g < rg.g1; g++ {
		profile := sp.Profiles[g%len(sp.Profiles)]
		for rep := 0; rep < sp.Replicas; rep++ {
			gi := g*sp.Replicas + rep
			name := InstanceName(profile, gi)
			ds := frng.Stream(name)
			if wins, faulted := drawFault(sp, ds, scripted, name); faulted {
				pre[gi] = &preFault{wins: wins, ds: ds}
			}
		}
	}
	return pre
}

// baseDevice builds the unwrapped device model of one fleet instance:
// a fitted surrogate when the spec maps the profile, else the catalog
// simulator on its own derived stream.
func baseDevice(sp *Spec, eng *sim.Engine, rng *sim.RNG, profile, name string) (device.Device, error) {
	if m := sp.Fitted[profile]; m != nil {
		fd, err := calib.NewDevice(eng, m, name)
		if err != nil {
			return nil, fmt.Errorf("fitted model for %s: %w", name, err)
		}
		return fd, nil
	}
	d, ok := catalog.NewNamed(profile, name, eng, rng.Stream(name))
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", profile)
	}
	return d, nil
}

// drawFault resolves one instance's fault outcome from its dedicated
// stream ds: the scripted windows when the spec names the instance,
// else the FaultFrac probabilistic draw. A scripted instance skips the
// probabilistic draw entirely, and every instance draws from its own
// stream, so adding a script to one device never perturbs another's
// faults or workload.
func drawFault(sp *Spec, ds *sim.RNG, scripted map[string][]fault.Window, name string) ([]fault.Window, bool) {
	if wins := scripted[name]; len(wins) > 0 {
		return wins, true
	}
	if sp.FaultFrac > 0 && ds.Float64() < sp.FaultFrac {
		kind := fault.Dropout
		if ds.Float64() < 0.5 {
			kind = fault.PowerCmdFail
		}
		start := time.Duration(float64(sp.Horizon) * (0.2 + 0.4*ds.Float64()))
		dur := time.Duration(float64(sp.Horizon) * (0.1 + 0.15*ds.Float64()))
		return []fault.Window{{Kind: kind, Start: start, Dur: dur}}, true
	}
	return nil, false
}
