// Package workload generates storage IO the way the paper drives fio:
// asynchronous direct IO at a fixed queue depth, random or sequential,
// for a bounded duration or byte total, with per-IO latency capture.
package workload

import (
	"fmt"
	"sort"
	"time"

	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/stats"
	"wattio/internal/telemetry"
)

// Pattern is the offset pattern of a job.
type Pattern int

const (
	// Seq issues consecutive offsets starting at zero, wrapping at the
	// span.
	Seq Pattern = iota
	// Rand issues uniformly random block-aligned offsets in the span.
	Rand
)

// String returns "seq" or "rand".
func (p Pattern) String() string {
	if p == Seq {
		return "seq"
	}
	return "rand"
}

// Arrival selects how IOs are generated.
type Arrival int

const (
	// Closed keeps Depth IOs in flight: a new IO issues when one
	// completes. This is fio's iodepth model and the paper's setup.
	Closed Arrival = iota
	// OpenPoisson issues IOs at exponentially distributed intervals
	// with mean 1/RateIOPS, independent of completions — the open-loop
	// model needed for offered-load (power proportionality) studies.
	OpenPoisson
)

// Job specifies one fio-style workload, mirroring the knobs the paper
// sweeps: rw, bs, iodepth, runtime, and size.
type Job struct {
	Op      device.Op
	Pattern Pattern
	// BS is the IO chunk size in bytes.
	BS int64
	// Depth is the number of IOs kept in flight (Closed arrivals).
	Depth int
	// Arrival selects closed-loop (default) or open-loop generation.
	Arrival Arrival
	// RateIOPS is the open-loop arrival rate; required for open modes.
	RateIOPS float64
	// Runtime bounds the issue window; the paper uses one minute.
	Runtime time.Duration
	// TotalBytes bounds the bytes issued; the paper uses 4 GiB.
	// Whichever of Runtime and TotalBytes is reached first stops issue.
	TotalBytes int64
	// Span restricts offsets to [0, Span); 0 means the whole device.
	Span int64
}

// Name returns a compact fio-style description, e.g. "randwrite-256k-qd64".
func (j Job) Name() string {
	dir := "read"
	if j.Op == device.OpWrite {
		dir = "write"
	}
	prefix := ""
	if j.Pattern == Rand {
		prefix = "rand"
	}
	return fmt.Sprintf("%s%s-%s-qd%d", prefix, dir, sizeLabel(j.BS), j.Depth)
}

func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dm", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dk", n>>10)
	default:
		return fmt.Sprintf("%db", n)
	}
}

// Validate reports why the job cannot run on dev, or nil. Start runs
// it and panics on its error; callers handed a job from outside the
// program (command-line flags) call it first to report the error.
func (j Job) Validate(dev device.Device) error {
	span := j.Span
	if span == 0 {
		span = dev.CapacityBytes()
	}
	switch {
	case j.BS <= 0 || j.BS%512 != 0:
		return fmt.Errorf("workload: block size %d invalid", j.BS)
	case j.Arrival == Closed && j.Depth <= 0:
		return fmt.Errorf("workload: depth %d must be positive", j.Depth)
	case j.Arrival != Closed && j.RateIOPS <= 0:
		return fmt.Errorf("workload: open arrivals need a positive rate")
	case j.Runtime <= 0 && j.TotalBytes <= 0:
		return fmt.Errorf("workload: need a runtime or byte bound")
	case span < j.BS:
		return fmt.Errorf("workload: span %d smaller than block size %d", span, j.BS)
	case span > dev.CapacityBytes():
		return fmt.Errorf("workload: span %d exceeds device capacity %d", span, dev.CapacityBytes())
	}
	return nil
}

// Result summarizes a completed job.
type Result struct {
	Job     Job
	IOs     int64
	Bytes   int64
	Elapsed time.Duration // issue start to last completion

	BandwidthMBps float64
	IOPS          float64

	LatAvg time.Duration
	LatP50 time.Duration
	LatP99 time.Duration
	LatMax time.Duration

	// Latencies holds every IO's completion latency in issue order.
	Latencies []time.Duration
}

// Runner drives one job on one device. Create with Start, then advance
// the engine until Done reports true.
type Runner struct {
	eng  *sim.Engine
	dev  device.Device
	job  Job
	rng  *sim.RNG
	span int64

	start        time.Duration
	deadline     time.Duration
	issued       int64 // bytes
	inflight     int
	seqOff       int64
	lastDone     time.Duration
	latencies    []time.Duration
	arrivalsDone bool
	done         bool
	arriveT      *sim.Timer // reused open-loop arrival timer
	freeDone     *ioDone    // free list of completion records, bounded by queue depth

	// Telemetry. Nil-safe no-ops when the engine has none attached.
	tr      *telemetry.Tracer
	lane    string
	cIssued *telemetry.Counter
	cDone   *telemetry.Counter
	gDepth  *telemetry.Gauge
	hLatNs  *telemetry.Histogram
}

// Start validates the job and issues the initial queue-depth worth of
// IOs. It panics on an invalid job: experiment specs are code, and bugs
// in them should fail loudly.
func Start(eng *sim.Engine, dev device.Device, job Job, rng *sim.RNG) *Runner {
	if err := job.Validate(dev); err != nil {
		panic(err)
	}
	span := job.Span
	if span == 0 {
		span = dev.CapacityBytes()
	}
	// Align the span down to a whole number of blocks so random offsets
	// never cross the end.
	span -= span % job.BS
	reg := eng.Metrics()
	r := &Runner{
		eng:  eng,
		dev:  dev,
		job:  job,
		rng:  rng.Stream("workload"),
		span: span,

		start:    eng.Now(),
		deadline: -1,

		tr:      eng.Tracer(),
		lane:    dev.Name() + "/io",
		cIssued: reg.Counter("workload_ios_issued_total"),
		cDone:   reg.Counter("workload_ios_completed_total"),
		gDepth:  reg.Gauge("workload_queue_depth"),
		hLatNs:  reg.Histogram("workload_latency_ns"),
	}
	if job.Runtime > 0 {
		r.deadline = eng.Now() + job.Runtime
	}
	if job.Arrival == Closed {
		for i := 0; i < job.Depth && r.canIssue(); i++ {
			r.issue()
		}
		if r.inflight == 0 {
			r.done = true
		}
		return r
	}
	r.arrive()
	return r
}

// arrive fires one open-loop arrival and schedules the next.
func (r *Runner) arrive() {
	if !r.canIssue() {
		r.arrivalsDone = true
		if r.inflight == 0 {
			r.done = true
		}
		return
	}
	r.issue()
	d := time.Duration(r.rng.Exponential(1/r.job.RateIOPS) * float64(time.Second))
	if d <= 0 {
		d = time.Nanosecond
	}
	if r.arriveT == nil {
		r.arriveT = r.eng.After(d, r.arrive)
	} else {
		r.arriveT.RescheduleAfter(d)
	}
}

// Done reports whether all issued IO has completed and no more will be
// issued.
func (r *Runner) Done() bool { return r.done }

func (r *Runner) canIssue() bool {
	if r.job.TotalBytes > 0 && r.issued >= r.job.TotalBytes {
		return false
	}
	if r.deadline >= 0 && r.eng.Now() >= r.deadline {
		return false
	}
	return true
}

// ioDone is one in-flight IO's completion record. Records are pooled on
// the Runner (the pool never exceeds the queue depth) so a closed-loop
// job at steady state submits every IO without allocating: the closure
// handed to the device is built once per record and only its captured
// fields change between reuses.
type ioDone struct {
	r         *Runner
	submitted time.Duration
	id        int64
	fn        func()
	next      *ioDone
}

func (d *ioDone) run() {
	// Copy out and recycle first: a closed-loop re-issue below may pick
	// this very record up for the replacement IO.
	r, submitted, id := d.r, d.submitted, d.id
	d.next = r.freeDone
	r.freeDone = d
	now := r.eng.Now()
	r.latencies = append(r.latencies, now-submitted)
	r.lastDone = now
	r.inflight--
	r.cDone.Inc()
	r.gDepth.Set(int64(r.inflight))
	r.hLatNs.Observe(int64(now - submitted))
	if r.tr.Enabled() {
		r.tr.AsyncEnd(r.lane, "io", r.job.Name(), id, now)
	}
	if r.job.Arrival != Closed {
		// Open loop: arrivals are driven by the clock, not by
		// completions; the runner finishes once arrivals have
		// stopped and the queue drains.
		if r.arrivalsDone && r.inflight == 0 {
			r.done = true
		}
		return
	}
	if r.canIssue() {
		r.issue()
	} else if r.inflight == 0 {
		r.done = true
	}
}

func (r *Runner) issue() {
	off := r.nextOffset()
	req := device.Request{Op: r.job.Op, Offset: off, Size: r.job.BS}
	r.issued += r.job.BS
	r.inflight++
	r.cIssued.Inc()
	r.gDepth.Set(int64(r.inflight))
	submitted := r.eng.Now()
	id := int64(len(r.latencies)) + int64(r.inflight)
	if r.tr.Enabled() {
		r.tr.AsyncBegin(r.lane, "io", r.job.Name(), id, submitted)
	}
	d := r.freeDone
	if d == nil {
		d = &ioDone{r: r}
		d.fn = d.run
	} else {
		r.freeDone = d.next
	}
	d.submitted, d.id = submitted, id
	r.dev.Submit(req, d.fn)
}

func (r *Runner) nextOffset() int64 {
	if r.job.Pattern == Rand {
		blocks := r.span / r.job.BS
		return r.rng.Int64N(blocks) * r.job.BS
	}
	off := r.seqOff
	r.seqOff += r.job.BS
	if r.seqOff+r.job.BS > r.span {
		r.seqOff = 0
	}
	return off
}

// Result summarizes the run. It panics if the runner is not Done.
func (r *Runner) Result() Result {
	if !r.done {
		panic("workload: Result before Done")
	}
	res := Result{
		Job:       r.job,
		IOs:       int64(len(r.latencies)),
		Bytes:     int64(len(r.latencies)) * r.job.BS,
		Latencies: r.latencies,
	}
	if res.IOs == 0 {
		return res
	}
	res.Elapsed = r.lastDone - r.start
	secs := res.Elapsed.Seconds()
	if secs > 0 {
		res.BandwidthMBps = float64(res.Bytes) / 1e6 / secs
		res.IOPS = float64(res.IOs) / secs
	}
	fl := make([]float64, len(r.latencies))
	var sum time.Duration
	maxLat := time.Duration(0)
	for i, l := range r.latencies {
		fl[i] = float64(l)
		sum += l
		if l > maxLat {
			maxLat = l
		}
	}
	res.LatAvg = sum / time.Duration(res.IOs)
	sort.Float64s(fl)
	res.LatP50 = time.Duration(stats.Quantile(fl, 0.50))
	res.LatP99 = time.Duration(stats.Quantile(fl, 0.99))
	res.LatMax = maxLat
	return res
}

// Run is the synchronous convenience: it starts the job and steps the
// engine until the job completes, then returns its Result. Other
// scheduled activity (power sampling, ALPM timers) advances normally.
func Run(eng *sim.Engine, dev device.Device, job Job, rng *sim.RNG) Result {
	r := Start(eng, dev, job, rng)
	for !r.Done() {
		if !eng.Step() {
			panic("workload: engine drained before job completion")
		}
	}
	return r.Result()
}
