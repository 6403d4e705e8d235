package main

import (
	"bytes"
	"fmt"
	"time"

	"wattio/internal/scenario"
	"wattio/internal/serve"
)

// workload is one named batch run of the fleet simulator. base returns
// its scenario with the default seed; the benchmark substitutes the
// seed it was given and hands the engine the encoded spec, so spec
// decoding is part of every measured set-up.
type workload struct {
	name, why string
	// runs is the least number of full runs an end-to-end invocation
	// makes. The costly workloads make no more, the cheap ones many more.
	runs int
	base func() (*scenario.Spec, error)
}

// workloads is the benchmark's fixed ladder. The modelled traffic in
// every one is open-loop Poisson at the spec's per-device rate.
var workloads = []workload{
	{
		name: "pure-1k",
		why:  "scenarios/fleet-1k.json: 1000 mirrored SSD2s, 10% faulted, stepped budget; loads the event kernel, device models and control plane, bypasses meso",
		// Its runs vary by ~7% even at steady host speed, about twice
		// as much as meso-10k's, so its median takes more of them.
		runs: 4,
		base: func() (*scenario.Spec, error) { return scenario.LoadFile("scenarios/fleet-1k.json") },
	},
	{
		name: "meso-10k",
		why:  "10k devices at 500 IOPS, never-binding budget; loads per-lane meso parking and its sentinel machine, bypasses budget planning and group buckets",
		runs: 3,
		base: func() (*scenario.Spec, error) {
			sp := scenario.BuiltIn("meso")
			sp.Name = "meso-10k"
			sp.Runtime = scenario.Duration(2 * time.Second)
			sp.Fleet.Size = 10_000
			sp.Fleet.RateIOPS = 500
			return sp, nil
		},
	},
	{
		name: "group-1m",
		why:  "10^6 group-parked devices, stepped budget; loads residency planning and the static bucket ledger, bypasses the event kernel beyond a few probes",
		runs: 3,
		base: func() (*scenario.Spec, error) {
			sp := scenario.BuiltIn("meso")
			sp.Name = "group-1m"
			sp.Runtime = scenario.Duration(2 * time.Second)
			sp.Fleet.Size = 1_000_000
			sp.Fleet.RateIOPS = 500
			sp.Fleet.Budget = "" // stepped curtail-and-recover default
			sp.Fleet.Meso.GroupMin = 64
			sp.Fleet.Meso.Probes = 2
			return sp, nil
		},
	},
	{
		name: "churn-100k",
		why:  "10^5 group-parked devices, diurnal rates, +10% groups join then drain; writes the bucket ledger (split, merge, re-plan) that group-1m only reads",
		runs: 3,
		base: func() (*scenario.Spec, error) {
			const size = 100_000
			sp := scenario.BuiltIn("churn")
			sp.Name = "churn-100k"
			sp.Fleet.Size = size
			sp.Fleet.Meso.GroupMin = 64
			sp.Fleet.Meso.Probes = 2
			sp.Fleet.Arrivals = []scenario.RateStepSpec{
				{At: 0, RateIOPS: 500},
				{At: scenario.Duration(1500 * time.Millisecond), RateIOPS: 250},
				{At: scenario.Duration(3 * time.Second), RateIOPS: 500},
			}
			sp.Fleet.Churn = []scenario.ChurnEventSpec{
				{At: scenario.Duration(time.Second), Profile: "SSD2", Add: size / 10, Warmup: scenario.Duration(200 * time.Millisecond)},
				{At: scenario.Duration(2500 * time.Millisecond), Profile: "SSD2", Remove: size / 10},
			}
			return sp, nil
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// source returns the workload's spec encoded with the given seed: the
// bytes a user would hand the engine.
func (w *workload) source(seed uint64) ([]byte, error) {
	sp, err := w.base()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	sp.Seed = seed
	return sp.Canonical()
}

// build decodes and validates an encoded spec and turns it into the
// serving engine's spec over the scenario's runtime.
func build(src []byte) (serve.Spec, error) {
	sp, err := scenario.Parse(bytes.NewReader(src))
	if err != nil {
		return serve.Spec{}, err
	}
	return sp.ServeSpec(sp.Runtime.D())
}

// setupSpec cuts a run down to its fixed cost: a 1 ms horizon and
// control period, the t=0 budget step and arrival rate only, and no
// churn. What remains is materialization, residency and the initial
// plan.
func setupSpec(sp serve.Spec) serve.Spec {
	sp.Horizon = time.Millisecond
	sp.ControlPeriod = time.Millisecond
	if len(sp.Budget) > 1 {
		sp.Budget = sp.Budget[:1]
	}
	if len(sp.Rates) > 1 {
		sp.Rates = sp.Rates[:1]
	}
	sp.Churn = nil
	return sp
}
