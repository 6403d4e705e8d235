// Package sweep runs measurement-study experiment grids: for each
// combination of device, power state, and IO shape it builds a fresh
// simulated testbed (device + measurement rig + workload generator),
// runs the paper's 4 GiB-or-60 s experiment, and reports the operating
// point with power measured through the instrumented rig — not read
// from the simulator's bookkeeping — so measurement error is part of
// every reported number, as it was in the paper.
package sweep

import (
	"fmt"
	"runtime"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/core"
	"wattio/internal/device"
	"wattio/internal/grid"
	"wattio/internal/measure"
	"wattio/internal/sim"
	"wattio/internal/telemetry"
	"wattio/internal/trace"
	"wattio/internal/workload"
)

// Point is one completed experiment: the configuration, the workload
// result, and the rig-measured power trace over the run.
type Point struct {
	Config    core.Config
	Result    workload.Result
	AvgPowerW float64
	Trace     *trace.PowerTrace
}

// Sample converts the point to a model sample.
func (p Point) Sample() core.Sample {
	return core.Sample{
		Config:         p.Config,
		PowerW:         p.AvgPowerW,
		ThroughputMBps: p.Result.BandwidthMBps,
		AvgLat:         p.Result.LatAvg,
		P99Lat:         p.Result.LatP99,
	}
}

// Spec describes one experiment grid on one device. Zero-valued slice
// fields default to a single natural element.
type Spec struct {
	Device      string
	PowerStates []int // nil → {0}
	Ops         []device.Op
	Patterns    []workload.Pattern
	Chunks      []int64
	Depths      []int

	// Runtime and TotalBytes bound each experiment; zero values take
	// the paper's defaults (60 s, 4 GiB).
	Runtime    time.Duration
	TotalBytes int64
	// Warmup, when positive, drives each cell's job shape for this
	// duration before the rig starts sampling, so the measured window
	// sees steady state — a full write-back cache, saturated power-state
	// regulator windows — instead of cold-start transients. Zero keeps
	// the historical cold-start measurement.
	Warmup time.Duration
	// Span restricts the offset range; 0 means the whole device.
	Span int64
	// Seed makes the grid reproducible.
	Seed uint64
	// KeepTrace retains each point's full power trace (memory-heavy;
	// Fig. 2 needs it, Fig. 8 does not).
	KeepTrace bool
}

func (s *Spec) defaults() {
	if len(s.PowerStates) == 0 {
		s.PowerStates = []int{0}
	}
	if len(s.Ops) == 0 {
		s.Ops = []device.Op{device.OpWrite}
	}
	if len(s.Patterns) == 0 {
		s.Patterns = []workload.Pattern{workload.Rand}
	}
	if len(s.Chunks) == 0 {
		s.Chunks = []int64{256 * 1024}
	}
	if len(s.Depths) == 0 {
		s.Depths = []int{64}
	}
	if s.Runtime == 0 {
		s.Runtime = time.Minute
	}
	if s.TotalBytes == 0 {
		s.TotalBytes = 4 << 30
	}
}

// PaperChunks are the six chunk sizes the paper sweeps (4 KiB-2 MiB).
func PaperChunks() []int64 {
	return []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20}
}

// PaperDepths are the six IO depths the paper sweeps (1-128).
func PaperDepths() []int {
	return []int{1, 4, 8, 32, 64, 128}
}

// cell is one grid coordinate.
type cell struct {
	ps    int
	op    device.Op
	pat   workload.Pattern
	chunk int64
	depth int
}

// Run executes the grid and returns one point per combination, in
// (power state, op, pattern, chunk, depth) nesting order — the
// lexicographic coordinate order of internal/grid, which enumerates and
// schedules the cells. Cells are independent simulations (each gets a
// fresh engine, device, and rig), so they run in parallel across CPUs;
// results land in fixed index slots and are deterministic and
// order-stable regardless of scheduling.
func Run(spec Spec) ([]Point, error) {
	spec.defaults()
	coords := grid.Coords([]int{
		len(spec.PowerStates), len(spec.Ops), len(spec.Patterns), len(spec.Chunks), len(spec.Depths),
	})
	cells := make([]cell, len(coords))
	for i, c := range coords {
		cells[i] = cell{
			ps:    spec.PowerStates[c[0]],
			op:    spec.Ops[c[1]],
			pat:   spec.Patterns[c[2]],
			chunk: spec.Chunks[c[3]],
			depth: spec.Depths[c[4]],
		}
	}
	out := make([]Point, len(cells))
	errs := make([]error, len(cells))
	workers := runtime.NumCPU()
	if workers > len(cells) {
		workers = len(cells)
	}

	// Grid-level metrics go to the process-default registry: cells are
	// independent engines, so the harness itself is the only place that
	// sees worker scheduling. Host wall-clock feeds only metrics here,
	// never results. busy_host_ns / (workers × elapsed) is utilization.
	reg := telemetry.Default()
	cCells := reg.Counter("sweep_cells_completed_total")
	cBusy := reg.Counter("sweep_busy_host_ns_total")
	reg.Gauge("sweep_workers").Set(int64(workers))

	grid.Pool(len(cells), workers, func(i int) {
		c := cells[i]
		cellStart := time.Now()
		out[i], errs[i] = runOne(spec, c.ps, c.op, c.pat, c.chunk, c.depth)
		cBusy.Add(time.Since(cellStart).Nanoseconds())
		cCells.Inc()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runOne builds a fresh testbed and runs a single experiment.
func runOne(spec Spec, ps int, op device.Op, pat workload.Pattern, chunk int64, depth int) (Point, error) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(spec.Seed ^ hashConfig(ps, op, pat, chunk, depth))
	dev, ok := catalog.NewNamed(spec.Device, spec.Device, eng, rng)
	if !ok {
		return Point{}, fmt.Errorf("sweep: unknown device %q", spec.Device)
	}
	if ps != 0 {
		if err := dev.SetPowerState(ps); err != nil {
			return Point{}, fmt.Errorf("sweep: %s ps%d: %w", spec.Device, ps, err)
		}
	}
	rig := measure.NewRig(eng, rng, dev)
	if spec.Warmup > 0 {
		// Same job shape, unmeasured, on a derived stream so the
		// measured run draws the same offsets as a cold-start cell.
		workload.Run(eng, dev, workload.Job{
			Op: op, Pattern: pat, BS: chunk, Depth: depth,
			Runtime: spec.Warmup, Span: spec.Span,
		}, rng.Stream("warmup"))
	}
	rig.Start()
	job := workload.Job{
		Op: op, Pattern: pat, BS: chunk, Depth: depth,
		Runtime: spec.Runtime, TotalBytes: spec.TotalBytes, Span: spec.Span,
	}
	res := workload.Run(eng, dev, job, rng)
	rig.Stop()
	tr := rig.Trace()
	cfg := core.Config{
		Device:     spec.Device,
		PowerState: ps,
		Random:     pat == workload.Rand,
		Write:      op == device.OpWrite,
		ChunkBytes: chunk,
		Depth:      depth,
	}
	// A point that ends before the rig's first sample has no measured
	// power; its empty trace's mean would read 0 W.
	if tr.Len() == 0 {
		return Point{}, fmt.Errorf("sweep: point %s ended after %v, before the power rig took its first sample; raise the runtime or byte bound",
			cfg, res.Elapsed)
	}
	p := Point{
		Config:    cfg,
		Result:    res,
		AvgPowerW: tr.Mean(),
	}
	if spec.KeepTrace {
		p.Trace = tr
	}
	return p, nil
}

// hashConfig derives a per-point seed offset so each grid cell gets an
// independent but reproducible random stream.
func hashConfig(ps int, op device.Op, pat workload.Pattern, chunk int64, depth int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range []uint64{uint64(ps), uint64(op), uint64(pat), uint64(chunk), uint64(depth)} {
		h = (h ^ v) * 1099511628211
	}
	return h
}

// Record is one sweep point flattened into the measurement dataset row
// downstream consumers — calibration fits, reports, tests — share. The
// quantities are exactly the ones the reports print: the workload's
// issue-to-last-completion window and the rig-measured average power
// over it, with energy their product. There is no second accounting
// path; a fit and a printed table disagree only if this function does.
type Record struct {
	Device     string
	PowerState int
	Random     bool
	Write      bool
	ChunkBytes int64
	Depth      int

	// IOs and Bytes are completed counts; both zero for an idle record.
	IOs   int64
	Bytes int64
	// Seconds is the measured window; EnergyJ = AvgPowerW × Seconds.
	Seconds   float64
	AvgPowerW float64
	EnergyJ   float64
	MBps      float64
}

// Record flattens the point into its dataset row.
func (p Point) Record() Record {
	secs := p.Result.Elapsed.Seconds()
	return Record{
		Device:     p.Config.Device,
		PowerState: p.Config.PowerState,
		Random:     p.Config.Random,
		Write:      p.Config.Write,
		ChunkBytes: p.Config.ChunkBytes,
		Depth:      p.Config.Depth,
		IOs:        p.Result.IOs,
		Bytes:      p.Result.Bytes,
		Seconds:    secs,
		AvgPowerW:  p.AvgPowerW,
		EnergyJ:    p.AvgPowerW * secs,
		MBps:       p.Result.BandwidthMBps,
	}
}

// Records converts a slice of points to dataset rows.
func Records(points []Point) []Record {
	out := make([]Record, len(points))
	for i, p := range points {
		out[i] = p.Record()
	}
	return out
}

// Idle measures a device holding a power state with no IO for dur: the
// same testbed as a swept cell (fresh engine, catalog device, rig on
// the device's rail) minus the workload, so idle draw is measured
// through the same instrument chain as loaded draw. The returned
// point's Result carries only the window; Record() yields a zero-IO
// row anchoring a calibration's static-power intercept.
func Idle(devName string, ps int, dur time.Duration, seed uint64) (Point, error) {
	if dur <= 0 {
		return Point{}, fmt.Errorf("sweep: idle window %v must be positive", dur)
	}
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed ^ hashIdle(ps, dur))
	dev, ok := catalog.NewNamed(devName, devName, eng, rng)
	if !ok {
		return Point{}, fmt.Errorf("sweep: unknown device %q", devName)
	}
	if ps != 0 {
		if err := dev.SetPowerState(ps); err != nil {
			return Point{}, fmt.Errorf("sweep: %s ps%d: %w", devName, ps, err)
		}
	}
	rig := measure.NewRig(eng, rng, dev)
	rig.Start()
	eng.RunUntil(dur)
	rig.Stop()
	return Point{
		Config:    core.Config{Device: devName, PowerState: ps},
		Result:    workload.Result{Elapsed: dur},
		AvgPowerW: rig.Trace().Mean(),
	}, nil
}

// hashIdle derives a per-window seed offset for idle measurements,
// disjoint from hashConfig's cell space by construction (a different
// FNV tag leads the fold).
func hashIdle(ps int, dur time.Duration) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range []uint64{0x1d7e, uint64(ps), uint64(dur)} {
		h = (h ^ v) * 1099511628211
	}
	return h
}

// Samples converts a slice of points to model samples.
func Samples(points []Point) []core.Sample {
	out := make([]core.Sample, len(points))
	for i, p := range points {
		out[i] = p.Sample()
	}
	return out
}

// BuildModel runs the full Fig. 10 grid for one device — every chunk ×
// depth combination (and every power state for devices that have them)
// under the given op and pattern — and returns its power-throughput
// model.
func BuildModel(devName string, op device.Op, pat workload.Pattern, seed uint64, runtime time.Duration, totalBytes int64) (*core.Model, error) {
	spec := Spec{
		Device:     devName,
		Ops:        []device.Op{op},
		Patterns:   []workload.Pattern{pat},
		Chunks:     PaperChunks(),
		Depths:     PaperDepths(),
		Runtime:    runtime,
		TotalBytes: totalBytes,
		Seed:       seed,
	}
	// Devices with NVMe power states sweep them too (ps0 always runs).
	spec.PowerStates = []int{0}
	eng := sim.NewEngine()
	if dev, ok := catalog.NewNamed(devName, devName, eng, sim.NewRNG(1)); ok {
		for i := 1; i < len(dev.PowerStates()); i++ {
			spec.PowerStates = append(spec.PowerStates, i)
		}
	}
	points, err := Run(spec)
	if err != nil {
		return nil, err
	}
	return core.NewModel(devName, Samples(points))
}
