package workload

import (
	"fmt"
	"time"

	"wattio/internal/sim"
)

// RateStep is one segment of a piecewise-constant arrival-rate
// schedule: from engine time At onward the process runs at IOPS
// arrivals per second, until the next step (or the deadline) takes
// over. A diurnal load curve is a handful of RateSteps.
type RateStep struct {
	At   time.Duration
	IOPS float64
}

// Arrivals is a standalone open-loop arrival process: it fires a
// callback per request arrival at the scheduled rate until its deadline
// passes or it is stopped. Runner embeds the same arrival logic for
// single-device jobs; Arrivals exists for layers that put their own
// queueing between arrival and device — the serving engine's admission
// control and batching cannot use Runner's direct-submit path.
type Arrivals struct {
	eng   *sim.Engine
	rng   *sim.RNG
	rates []RateStep
	ri    int // index of the rate step in force

	deadline time.Duration
	count    int64
	stopped  bool
	arrival  bool // the armed timer is an arrival, not a rate boundary
	timer    *sim.Timer
	fn       func()
}

// StartArrivalsSchedule begins an open-loop Poisson arrival process on
// the engine, driven by a piecewise-constant rate schedule (one step at
// 0 for a fixed rate). fn runs once per arrival until the deadline or
// Stop. rates must be non-empty with strictly increasing At and
// positive IOPS; At values are absolute engine times (a process started
// mid-run picks up whichever step is in force). until is the absolute
// engine time past which no arrival may land. At each rate boundary the
// pending inter-arrival draw is discarded and resampled at the new rate,
// which is exact by memorylessness.
func StartArrivalsSchedule(eng *sim.Engine, rng *sim.RNG, rates []RateStep, until time.Duration, fn func()) (*Arrivals, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("workload: arrivals need at least one rate step")
	}
	for i, r := range rates {
		if r.IOPS <= 0 {
			return nil, fmt.Errorf("workload: arrival rate %v must be positive", r.IOPS)
		}
		if i > 0 && r.At <= rates[i-1].At {
			return nil, fmt.Errorf("workload: rate steps must have strictly increasing times")
		}
	}
	if until <= eng.Now() {
		return nil, fmt.Errorf("workload: arrival deadline %v must be in the future", until)
	}
	if fn == nil {
		return nil, fmt.Errorf("workload: arrivals need a callback")
	}
	a := &Arrivals{
		eng:      eng,
		rng:      rng,
		rates:    rates,
		deadline: until,
		fn:       fn,
	}
	// The first arrival comes one inter-arrival gap in, not at t=0: an
	// open-loop source has no reason to fire the instant it is created,
	// and a synchronized burst across many lanes would be an artifact.
	a.schedule()
	return a, nil
}

// gapAt advances the step cursor to the step in force at now and
// returns its mean inter-arrival time in seconds.
func (a *Arrivals) gapAt(now time.Duration) float64 {
	for a.ri+1 < len(a.rates) && a.rates[a.ri+1].At <= now {
		a.ri++
	}
	return 1 / a.rates[a.ri].IOPS
}

func (a *Arrivals) schedule() {
	now := a.eng.Now()
	d := time.Duration(a.rng.Exponential(a.gapAt(now)) * float64(time.Second))
	if d <= 0 {
		d = time.Nanosecond
	}
	// A draw that crosses the next rate boundary is abandoned there and
	// resampled at the new rate; the boundary tick is not an arrival.
	if a.ri+1 < len(a.rates) {
		if b := a.rates[a.ri+1].At; now+d > b {
			a.arm(b-now, false)
			return
		}
	}
	if now+d > a.deadline {
		a.stopped = true
		return
	}
	a.arm(d, true)
}

// arm sets the process timer d from now. One timer serves the whole
// process: the first arm creates it, every later arm re-sifts it in
// place.
func (a *Arrivals) arm(d time.Duration, arrival bool) {
	a.arrival = arrival
	if a.timer == nil {
		a.timer = a.eng.After(d, a.tick)
	} else {
		a.timer.RescheduleAfter(d)
	}
}

func (a *Arrivals) tick() {
	if a.stopped {
		return
	}
	if a.arrival {
		a.count++
		a.fn()
	}
	a.schedule()
}

// Stop halts the process early. Idempotent.
func (a *Arrivals) Stop() {
	if a.stopped {
		return
	}
	if a.timer != nil {
		a.timer.Stop()
	}
	a.stopped = true
}

// Count returns how many arrivals have fired.
func (a *Arrivals) Count() int64 { return a.count }
