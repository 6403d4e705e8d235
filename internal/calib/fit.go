package calib

import (
	"fmt"
	"math"
	"sync"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/sweep"
	"wattio/internal/workload"
)

// Calibration grid: three chunk sizes decouple per-op from per-byte
// energy, both directions fit their own coefficients, and two idle
// windows per power state anchor the static intercept (their differing
// durations, against the fixed loaded-cell window, identify StaticW
// separately from the per-IO terms). Depths stay in the saturated
// regime on purpose: a fitted device is a single-server FIFO, and the
// HDD's shortest-positioning-time scheduler makes per-op seek cost
// depth-dependent at low depth — variance a depth-blind linear model
// cannot express and would carry as pure error.
var (
	calibChunks = []int64{64 << 10, 256 << 10, 1 << 20}
	calibDepths = []int{32, 64}
	calibIdle   = []time.Duration{500 * time.Millisecond, 2 * time.Second}
)

// pointBytes caps each grid cell's transferred bytes. Cells are
// time-bound (Options.PointRuntime); this is a safety bound, not the
// sizing knob.
const pointBytes = 8 << 30

// Gates every fitted class must clear, asserted by `-exp calib` and CI.
const (
	// GateR2 is the minimum cross-validated coefficient of determination.
	GateR2 = 0.98
	// GateMAPE is the maximum cross-validated mean absolute percentage
	// error on held-out energy predictions, as a fraction.
	GateMAPE = 0.05
)

// Options bounds one class's calibration sweep. Zero values take
// defaults sized so a full four-class calibration runs in seconds.
type Options struct {
	// PointRuntime is each loaded cell's virtual duration. Cells are
	// time-bound: a fixed window long enough that power-state regulators
	// reach their sustained (rolling-window) regime and the rig's 1 ms
	// sampling averages out transfer transients. Default 1.5 s.
	PointRuntime time.Duration
	// Warmup runs each cell's job shape unmeasured before sampling
	// starts, so cells measure steady state — in particular the HDD's
	// 128 MiB write-back cache is full, not absorbing writes at link
	// speed. Default 600 ms; negative disables warmup.
	Warmup time.Duration
	// Seed drives the sweep and the cross-validation shuffle. Default 42.
	Seed uint64
	// Folds is the cross-validation fold count. Default 5.
	Folds int
}

func (o Options) withDefaults() (Options, error) {
	if o.PointRuntime == 0 {
		o.PointRuntime = 1500 * time.Millisecond
	}
	if o.Warmup == 0 {
		o.Warmup = 600 * time.Millisecond
	} else if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Folds == 0 {
		o.Folds = 5
	}
	if o.PointRuntime < 0 {
		return o, fmt.Errorf("calib: negative point runtime")
	}
	if o.Folds < 2 {
		return o, fmt.Errorf("calib: need at least 2 cross-validation folds, got %d", o.Folds)
	}
	return o, nil
}

// Fit is one fitted class with its cross-validation scorecard.
type Fit struct {
	Model *Model
	// Records is the full calibration dataset (grid cells then idle
	// windows, in sweep order) the final coefficients were fitted on.
	Records []sweep.Record
	// R2 and MAPE are pooled over every held-out prediction of the
	// seeded k-fold cross-validation (MAPE as a fraction).
	R2   float64
	MAPE float64
}

// GatesOK reports whether the fit clears both CI gates.
func (f *Fit) GatesOK() bool { return f.R2 >= GateR2 && f.MAPE <= GateMAPE }

// fitCache memoizes FitClass: a campaign or a fleet spec naming the
// same class at the same options reuses one sweep+fit. The cached Fit
// is shared — callers must treat it as immutable.
var fitCache sync.Map // string → *Fit

// FitClass calibrates one catalog class: it sweeps the mechanistic
// simulator through the calibration grid, fits per-state non-negative
// energy and service models, and cross-validates the energy fit.
// Results are memoized per (class, options).
func FitClass(class string, opt Options) (*Fit, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s/%d/%d/%d/%d", class, opt.PointRuntime, opt.Warmup, opt.Seed, opt.Folds)
	if f, ok := fitCache.Load(key); ok {
		return f.(*Fit), nil
	}
	f, err := fitClass(class, opt)
	if err != nil {
		return nil, err
	}
	fitCache.Store(key, f)
	return f, nil
}

// classInfo probes the catalog for a class's metadata and power states.
func classInfo(class string) (dev device.Device, states int, err error) {
	eng := sim.NewEngine()
	d, ok := catalog.NewNamed(class, class, eng, sim.NewRNG(1))
	if !ok {
		return nil, 0, fmt.Errorf("calib: unknown device class %q", class)
	}
	n := len(d.PowerStates())
	if n == 0 {
		n = 1
	}
	return d, n, nil
}

// Dataset runs the calibration sweep for one class and returns its
// measurement records: every grid cell across every power state, then
// the idle windows, all in deterministic order.
func Dataset(class string, opt Options) ([]sweep.Record, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	_, nStates, err := classInfo(class)
	if err != nil {
		return nil, err
	}
	pss := make([]int, nStates)
	for i := range pss {
		pss[i] = i
	}
	pts, err := sweep.Run(sweep.Spec{
		Device:      class,
		PowerStates: pss,
		Ops:         []device.Op{device.OpRead, device.OpWrite},
		Patterns:    []workload.Pattern{workload.Rand},
		Chunks:      calibChunks,
		Depths:      calibDepths,
		Runtime:     opt.PointRuntime,
		TotalBytes:  pointBytes,
		Warmup:      opt.Warmup,
		Seed:        opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	recs := sweep.Records(pts)
	for _, ps := range pss {
		for _, dur := range calibIdle {
			p, err := sweep.Idle(class, ps, dur, opt.Seed)
			if err != nil {
				return nil, err
			}
			recs = append(recs, p.Record())
		}
	}
	return recs, nil
}

// featureRow maps a record onto the energy model's five features:
// read ops, read bytes, write ops, write bytes, seconds. The fitted
// coefficient vector is, in the same order, J/read-op, J/read-byte,
// J/write-op, J/write-byte, and the static watts.
func featureRow(r sweep.Record) []float64 {
	row := make([]float64, 5)
	if r.Write {
		row[2], row[3] = float64(r.IOs), float64(r.Bytes)
	} else {
		row[0], row[1] = float64(r.IOs), float64(r.Bytes)
	}
	row[4] = r.Seconds
	return row
}

// coeffsFrom maps a solved feature vector back onto Coeffs.
func coeffsFrom(x []float64) Coeffs {
	return Coeffs{ReadOpJ: x[0], ReadByteJ: x[1], WriteOpJ: x[2], WriteByteJ: x[3], StaticW: x[4]}
}

// PredictEnergyJ evaluates the fitted energy model on one record's
// observed operation counts and window.
func (c Coeffs) PredictEnergyJ(r sweep.Record) float64 {
	ops, bytes := float64(r.IOs), float64(r.Bytes)
	e := c.StaticW * r.Seconds
	if r.Write {
		e += c.WriteOpJ*ops + c.WriteByteJ*bytes
	} else {
		e += c.ReadOpJ*ops + c.ReadByteJ*bytes
	}
	return e
}

// fitEnergy solves the per-state NNLS energy fit over recs. Rows are
// weighted by 1/energy, so the solver minimizes relative residuals —
// the quantity the MAPE gate measures — instead of letting the
// largest-energy records (long idle windows, slow seek-bound cells)
// dominate the squared error.
func fitEnergy(recs []sweep.Record) (Coeffs, error) {
	a := make([][]float64, len(recs))
	b := make([]float64, len(recs))
	for i, r := range recs {
		if r.EnergyJ <= 0 {
			return Coeffs{}, fmt.Errorf("calib: record %d has non-positive energy %v", i, r.EnergyJ)
		}
		row := featureRow(r)
		for j := range row {
			row[j] /= r.EnergyJ
		}
		a[i] = row
		b[i] = 1
	}
	x, err := NNLS(a, b)
	if err != nil {
		return Coeffs{}, err
	}
	return coeffsFrom(x), nil
}

// fitService fits the per-state service model: seconds per op as an
// affine function of the IO size, from the saturated (deepest-queue)
// grid cells of each direction. A fitted device is a single-server
// FIFO, so its saturated throughput reproduces these cells directly.
func fitService(recs []sweep.Record) (Service, error) {
	maxDepth := 0
	for _, r := range recs {
		if r.Depth > maxDepth {
			maxDepth = r.Depth
		}
	}
	var svc Service
	for _, write := range []bool{false, true} {
		var a [][]float64
		var b []float64
		for _, r := range recs {
			if r.Write != write || r.Depth != maxDepth || r.IOs == 0 {
				continue
			}
			a = append(a, []float64{1, float64(r.ChunkBytes)})
			b = append(b, r.Seconds/float64(r.IOs))
		}
		if len(a) < 2 {
			return Service{}, fmt.Errorf("calib: %d saturated cells for service fit, need >= 2", len(a))
		}
		x, err := NNLS(a, b)
		if err != nil {
			return Service{}, err
		}
		if write {
			svc.WriteOpS, svc.WriteByteS = x[0], x[1]
		} else {
			svc.ReadOpS, svc.ReadByteS = x[0], x[1]
		}
	}
	return svc, nil
}

// crossValidate runs seeded k-fold cross-validation of the energy fit
// over the class dataset and returns the pooled R² and MAPE on held-out
// predictions. Folds are stratified: records are grouped by (power
// state, idle-vs-loaded), each group is shuffled with the seeded
// stream and dealt round-robin, so every training set keeps loaded and
// idle coverage of every state.
func crossValidate(recs []sweep.Record, opt Options) (r2, mape float64, err error) {
	fold := make([]int, len(recs))
	rng := sim.NewRNG(opt.Seed).Stream("calib/cv")
	groups := map[[2]int][]int{}
	for i, r := range recs {
		k := [2]int{r.PowerState, 0}
		if r.IOs == 0 {
			k[1] = 1
		}
		groups[k] = append(groups[k], i)
	}
	// Deterministic group walk: states ascending, loaded before idle.
	maxPS := 0
	for _, r := range recs {
		if r.PowerState > maxPS {
			maxPS = r.PowerState
		}
	}
	next := 0
	for ps := 0; ps <= maxPS; ps++ {
		for _, idle := range []int{0, 1} {
			idxs := groups[[2]int{ps, idle}]
			for i := len(idxs) - 1; i > 0; i-- {
				j := rng.IntN(i + 1)
				idxs[i], idxs[j] = idxs[j], idxs[i]
			}
			for _, i := range idxs {
				fold[i] = next % opt.Folds
				next++
			}
		}
	}

	var ssRes, ssTot, sumAPE float64
	var n int
	var mean float64
	for _, r := range recs {
		mean += r.EnergyJ
	}
	mean /= float64(len(recs))
	for f := 0; f < opt.Folds; f++ {
		// Per-state refit on the training folds.
		coeffs := map[int]Coeffs{}
		for ps := 0; ps <= maxPS; ps++ {
			var train []sweep.Record
			for i, r := range recs {
				if fold[i] != f && r.PowerState == ps {
					train = append(train, r)
				}
			}
			if len(train) == 0 {
				continue
			}
			c, err := fitEnergy(train)
			if err != nil {
				return 0, 0, err
			}
			coeffs[ps] = c
		}
		for i, r := range recs {
			if fold[i] != f {
				continue
			}
			c, ok := coeffs[r.PowerState]
			if !ok {
				return 0, 0, fmt.Errorf("calib: fold %d left power state %d with no training data", f, r.PowerState)
			}
			pred := c.PredictEnergyJ(r)
			ssRes += (pred - r.EnergyJ) * (pred - r.EnergyJ)
			ssTot += (r.EnergyJ - mean) * (r.EnergyJ - mean)
			sumAPE += math.Abs(pred-r.EnergyJ) / math.Abs(r.EnergyJ)
			n++
		}
	}
	if n == 0 || ssTot == 0 {
		return 0, 0, fmt.Errorf("calib: cross-validation had no held-out predictions")
	}
	return 1 - ssRes/ssTot, sumAPE / float64(n), nil
}

// fitClass is the uncached fit: dataset, per-state fits, CV, model
// assembly with the catalog metadata.
func fitClass(class string, opt Options) (*Fit, error) {
	dev, nStates, err := classInfo(class)
	if err != nil {
		return nil, err
	}
	recs, err := Dataset(class, opt)
	if err != nil {
		return nil, err
	}
	m := &Model{
		Class:         class,
		DeviceModel:   dev.Model(),
		Protocol:      dev.Protocol(),
		CapacityBytes: dev.CapacityBytes(),
	}
	descr := dev.PowerStates()
	for ps := 0; ps < nStates; ps++ {
		var sub []sweep.Record
		for _, r := range recs {
			if r.PowerState == ps {
				sub = append(sub, r)
			}
		}
		energy, err := fitEnergy(sub)
		if err != nil {
			return nil, fmt.Errorf("calib: %s ps%d energy fit: %w", class, ps, err)
		}
		svc, err := fitService(sub)
		if err != nil {
			return nil, fmt.Errorf("calib: %s ps%d service fit: %w", class, ps, err)
		}
		st := State{Energy: energy, Service: svc}
		if ps < len(descr) {
			st.MaxPowerW = descr[ps].MaxPowerW
		}
		m.States = append(m.States, st)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("calib: %s fit produced an invalid model: %w", class, err)
	}
	r2, mape, err := crossValidate(recs, opt)
	if err != nil {
		return nil, fmt.Errorf("calib: %s: %w", class, err)
	}
	return &Fit{Model: m, Records: recs, R2: r2, MAPE: mape}, nil
}
