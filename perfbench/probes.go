package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"wattio/internal/adaptive"
	"wattio/internal/catalog"
	"wattio/internal/core"
	"wattio/internal/device"
	"wattio/internal/meso"
	"wattio/internal/serve"
	"wattio/internal/sim"
	iogen "wattio/internal/workload"
)

// A probe times one layer's public API in isolation, with inputs shaped
// like the workload that layer's metrics map to, and reports the median
// of probeReps repetitions. Shard shapes are read from the engine's own
// report of a run of that workload (its set-up cut where the full run
// is costly), so they follow the engine's shard policy instead of
// restating it. The two copies of engine figures a report does not
// show, the kernel's traffic and the SSD2 planning table, are pinned to
// the engine by tests.
type probe struct {
	name string
	// run returns host timings (the bench converts them to reference
	// speed) and deterministic counts.
	run func(seed uint64) (timed map[string]float64, counts map[string]int64, err error)
}

var probes = []probe{
	{"sim", probeSim},
	{"ssd", probeSSD},
	{"core", probeCore},
	{"adaptive", probeAdaptive},
	{"meso.pool", probePool},
	{"meso.group", probeGroup},
}

const probeReps = 5

func runProbe(name string, seed uint64) (*childResult, error) {
	for _, p := range probes {
		if p.name != name {
			continue
		}
		start := time.Now()
		timed, counts, err := p.run(seed)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		return &childResult{
			Probe:    timed,
			Counters: counts,
			Spans:    []span{{"probe." + name, 0, time.Since(start).Nanoseconds()}},
		}, nil
	}
	return nil, fmt.Errorf("unknown probe %q", name)
}

// medianRep runs f probeReps times and returns the median of its
// results.
func medianRep(f func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

func perOp(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

// workloadSpec builds the serving spec of a named workload.
func workloadSpec(name string, seed uint64) (serve.Spec, error) {
	w, err := findWorkload(name)
	if err != nil {
		return serve.Spec{}, err
	}
	src, err := w.source(seed)
	if err != nil {
		return serve.Spec{}, err
	}
	return build(src)
}

// setupRun runs a workload's set-up cut (see setupSpec), which is cheap,
// for the shape the engine gives the fleet.
func setupRun(name string, seed uint64) (serve.Spec, *serve.Report, error) {
	sp, err := workloadSpec(name, seed)
	if err != nil {
		return serve.Spec{}, nil, err
	}
	rep, err := serve.Run(setupSpec(sp))
	return sp, rep, err
}

// Kernel probe shape: the event traffic of one pure-1k shard, from
// pure-1k's traced run at seed 42. Its engines' heaps peak at
// kernelSources pending events (sim.heap_depth_max). A shard dispatches
// 72 791 102 events ÷ 16 shards ÷ 510 ms simulated = 8.92×10⁶ events per
// simulated second, so by Little's law a pending event waits
// kernelMeanDelay on average. TestKernelShapeMatchesPure1k ties both to
// the engine.
const (
	kernelSources   = 642
	kernelMeanDelay = 72 * time.Microsecond
	kernelEvents    = 1 << 20 // events one kernel probe repetition fires
)

// delayTable draws 1024 exponential delays with mean kernelMeanDelay.
func delayTable(seed uint64) []time.Duration {
	rng := sim.NewRNG(seed)
	d := make([]time.Duration, 1024)
	for i := range d {
		d[i] = time.Duration(rng.Exponential(float64(kernelMeanDelay))) + 1
	}
	return d
}

// probeSim times Engine.After plus Step, and Chain.Post plus Step, on
// kernelSources self-re-arming event sources, each re-arming after a
// delay from delayTable.
func probeSim(seed uint64) (map[string]float64, map[string]int64, error) {
	delays := delayTable(seed)
	kernel, err := medianRep(func() (float64, error) {
		eng := sim.NewEngine()
		fired := 0
		for i := 0; i < kernelSources; i++ {
			var fn func()
			fn = func() {
				fired++
				eng.After(delays[(fired+i)&1023], fn)
			}
			eng.After(delays[i&1023], fn)
		}
		t0 := time.Now()
		for fired < kernelEvents && eng.Step() {
		}
		return perOp(time.Since(t0), fired), nil
	})
	if err != nil {
		return nil, nil, err
	}
	chain, err := medianRep(func() (float64, error) {
		eng := sim.NewEngine()
		fired := 0
		for i := 0; i < kernelSources; i++ {
			c := eng.NewChain()
			var fn func()
			fn = func() {
				fired++
				c.Post(eng.Now()+delays[(fired+i)&1023], fn)
			}
			c.Post(delays[i&1023], fn)
		}
		t0 := time.Now()
		for fired < kernelEvents && eng.Step() {
		}
		return perOp(time.Since(t0), fired), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return map[string]float64{"sim.kernel_ns_per_event": kernel, "sim.chain_ns_per_event": chain}, nil, nil
}

// probeSSD times one SSD2 under pure-1k's request shape: 256 KiB random
// writes at queue depth 64.
func probeSSD(seed uint64) (map[string]float64, map[string]int64, error) {
	v, err := medianRep(func() (float64, error) {
		eng := sim.NewEngine()
		dev := catalog.NewSSD2(eng, sim.NewRNG(seed))
		t0 := time.Now()
		res := iogen.Run(eng, dev, iogen.Job{
			Op: device.OpWrite, Pattern: iogen.Rand, BS: 256 << 10, Depth: 64,
			Runtime: 500 * time.Millisecond, TotalBytes: 1 << 40,
		}, sim.NewRNG(seed+1))
		if res.IOs == 0 {
			return 0, fmt.Errorf("ssd probe completed no IO")
		}
		return perOp(time.Since(t0), int(res.IOs)), nil
	})
	return map[string]float64{"ssd.ns_per_io": v}, nil, err
}

// ssd2Plan is the SSD2 planning model the serving engine budgets over
// (power state, watts, MB/s at 256 KiB random write, qd 64). The engine
// keeps its table private; TestPlanTableMatchesEngine ties this copy to
// the engine's budgets.
var ssd2Plan = []struct {
	ps     int
	w, mbs float64
}{{0, 14.4, 3100}, {1, 11.7, 2230}, {2, 9.7, 1590}}

// shardModels builds fresh (cold) planning models for n SSD2 instances.
func shardModels(n int) ([]*core.Model, error) {
	models := make([]*core.Model, n)
	for i := range models {
		name := serve.InstanceName("SSD2", i)
		samples := make([]core.Sample, len(ssd2Plan))
		for j, p := range ssd2Plan {
			samples[j] = core.Sample{
				Config: core.Config{
					Device: name, PowerState: p.ps, Random: true, Write: true,
					ChunkBytes: 256 << 10, Depth: 64,
				},
				PowerW: p.w, ThroughputMBps: p.mbs,
			}
		}
		m, err := core.NewModel(name, samples)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	return models, nil
}

// pureShard is one pure-1k shard: its device count (the fleet over the
// engine's shard count, from a set-up run) and the budget slices its
// controller is handed at each budget step.
func pureShard(seed uint64) (n int, budget []float64, err error) {
	sp, rep, err := setupRun("pure-1k", seed)
	if err != nil {
		return 0, nil, err
	}
	n = rep.Devices / rep.Shards
	for _, st := range sp.Budget {
		budget = append(budget, st.FleetW*float64(n)/float64(rep.Devices))
	}
	return n, budget, nil
}

// probeCore times a cold frontier build and query at pure-1k's binding
// (lowest) budget step over one shard's model set.
func probeCore(seed uint64) (map[string]float64, map[string]int64, error) {
	n, budget, err := pureShard(seed)
	if err != nil {
		return nil, nil, err
	}
	binding := slices.Min(budget)
	points := 0
	v, err := medianRep(func() (float64, error) {
		models, err := shardModels(n)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		f, err := core.NewFleet(models...)
		if err != nil {
			return 0, err
		}
		if _, ok := f.BestUnderPower(binding); !ok {
			return 0, fmt.Errorf("no plan fits %.1f W over %d devices", binding, n)
		}
		d := time.Since(t0)
		points = len(f.ParetoFrontier())
		return float64(d.Nanoseconds()) / 1e6, nil
	})
	return map[string]float64{"core.frontier_ms": v}, map[string]int64{"core.frontier_points": int64(points)}, err
}

// probeAdaptive times BudgetController.Apply over pure-1k's budget
// steps on one shard's composition of live SSD2 devices.
func probeAdaptive(seed uint64) (map[string]float64, map[string]int64, error) {
	n, budget, err := pureShard(seed)
	if err != nil {
		return nil, nil, err
	}
	v, err := medianRep(func() (float64, error) {
		eng := sim.NewEngine()
		rng := sim.NewRNG(seed)
		devs := make([]device.Device, n)
		for i := range devs {
			name := serve.InstanceName("SSD2", i)
			d, ok := catalog.NewNamed("SSD2", name, eng, rng.Stream(name))
			if !ok {
				return 0, fmt.Errorf("no SSD2 in the catalog")
			}
			devs[i] = d
		}
		models, err := shardModels(n)
		if err != nil {
			return 0, err
		}
		f, err := core.NewFleet(models...)
		if err != nil {
			return 0, err
		}
		bc, err := adaptive.NewBudgetController(f, devs)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for _, w := range budget {
			if _, err := bc.Apply(w); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(len(budget)), nil
	})
	return map[string]float64{"adaptive.apply_ms": v}, nil, err
}

// probePool times Pool.Park, DynEnergyJ and Unpark over meso-10k's
// lanes per shard (replica groups over the engine's shard count, from a
// set-up run).
func probePool(seed uint64) (map[string]float64, map[string]int64, error) {
	sp, rep, err := setupRun("meso-10k", seed)
	if err != nil {
		return nil, nil, err
	}
	lanes := rep.Groups / rep.Shards
	rng := sim.NewRNG(seed)
	ops := make([]meso.OperatingPoint, lanes)
	for i := range ops {
		ops[i] = meso.OperatingPoint{PowerW: 6 + 2*rng.Float64(), IdleW: 5, RateIOPS: sp.RateIOPS, BytesPerIO: 256 << 10}
	}
	const rounds = 400
	var sink float64
	v, err := medianRep(func() (float64, error) {
		p := meso.NewPool(lanes)
		now, n := time.Duration(0), 0
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for i := 0; i < lanes; i++ {
				p.Park(i, ops[i], now)
				now += time.Microsecond
				sink += p.DynEnergyJ(now)
			}
			for i := 0; i < lanes; i++ {
				sink += float64(p.Unpark(i, now).IOs)
				now += time.Microsecond
			}
			n += 3 * lanes
		}
		return perOp(time.Since(t0), n), nil
	})
	if sink < 0 {
		return nil, nil, fmt.Errorf("pool accounted negative energy")
	}
	return map[string]float64{"meso.pool_ns_per_op": v}, nil, err
}

// probeGroup times GroupPool.SetCount, Calibrate, EnergyJ and SettleIO
// on one pool holding as many buckets as one churn-100k shard's pool
// held, read from a full churn-100k run (it is cheap).
func probeGroup(seed uint64) (map[string]float64, map[string]int64, error) {
	sp, err := workloadSpec("churn-100k", seed)
	if err != nil {
		return nil, nil, err
	}
	rep, err := serve.Run(sp)
	if err != nil {
		return nil, nil, err
	}
	buckets := (rep.MesoGroupBuckets + rep.Shards - 1) / rep.Shards
	if buckets < 1 {
		return nil, nil, fmt.Errorf("churn-100k held no group bucket")
	}
	fmt.Fprintf(os.Stderr, "perfbench: meso.group probe: %d buckets per shard\n", buckets)
	keys := make([]meso.GroupKey, buckets)
	for i := range keys {
		keys[i] = meso.GroupKey{State: i}
	}
	rng := sim.NewRNG(seed)
	watts := make([]float64, len(keys))
	for i := range watts {
		watts[i] = 9 + 5*rng.Float64()
	}
	const rounds = 200000
	var sink int64
	v, err := medianRep(func() (float64, error) {
		p := meso.NewGroupPool(sp.RateIOPS, 256<<10)
		now, n := time.Duration(0), 0
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for i, k := range keys {
				p.SetCount(k, 100+(r+i)%7, now)
				p.Calibrate(k, watts[i], now)
			}
			now += time.Millisecond
			if p.EnergyJ(now) < 0 {
				return 0, fmt.Errorf("group pool accounted negative energy")
			}
			ios, _ := p.SettleIO(now)
			sink += ios
			n += 2*len(keys) + 2
		}
		return perOp(time.Since(t0), n), nil
	})
	if sink <= 0 {
		return nil, nil, fmt.Errorf("group pool settled no IO")
	}
	return map[string]float64{"meso.group_ns_per_op": v}, nil, err
}
