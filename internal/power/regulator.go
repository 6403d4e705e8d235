package power

import (
	"fmt"
	"time"
)

// Regulator enforces a cap on average power over a rolling window, the
// semantics NVMe power states specify ("maximum average power over any
// 10-second period").
//
// It is an energy-credit bucket: credits accrue at the sustained rate
// (cap minus the device's uncontrollable base draw) up to one window's
// worth, and each controllable operation spends its energy before it may
// start. When credits run dry the operation must wait — that wait is
// exactly the throttling the paper measures as throughput loss and tail
// latency under ps1/ps2.
type Regulator struct {
	rateW   float64 // sustained controllable watts (cap - base); <0 clamped to 0
	burstJ  float64 // bucket capacity in joules
	credits float64
	last    time.Duration
	capped  bool
}

// NewRegulator returns a regulator that admits sustained controllable
// power rateW with a burst of one window at that rate. A window of zero
// disables bursting entirely (ops are admitted at exactly the sustained
// rate).
func NewRegulator(rateW float64, window time.Duration, now time.Duration) Regulator {
	if rateW < 0 {
		rateW = 0
	}
	burst := rateW * window.Seconds()
	return Regulator{
		rateW:   rateW,
		burstJ:  burst,
		credits: burst, // start full: an idle device may burst to the cap
		last:    now,
		capped:  true,
	}
}

// Uncapped returns a regulator that admits everything immediately. It is
// the zero Regulator.
func Uncapped() Regulator { return Regulator{} }

// Admit reserves joules of energy for an operation. It returns the delay
// the operation must wait before starting; zero means start now. The
// energy is committed immediately (credits may go negative up to the
// reservation), which serializes co-timed requests fairly in FIFO order.
func (r *Regulator) Admit(now time.Duration, joules float64) time.Duration {
	if !r.capped {
		return 0
	}
	if joules < 0 {
		panic(fmt.Sprintf("power: negative energy reservation %v", joules))
	}
	r.advance(now)
	r.credits -= joules
	if r.credits >= 0 {
		return 0
	}
	if r.rateW <= 0 {
		// The cap leaves no headroom above base draw. Model the op as
		// crawling through at a trickle rather than deadlocking: admit
		// after one window per joule owed, bounded below by 1ms.
		d := time.Duration(-r.credits * float64(time.Second))
		if d < time.Millisecond {
			d = time.Millisecond
		}
		r.credits = 0
		return d
	}
	return time.Duration(-r.credits / r.rateW * float64(time.Second))
}

// Credits returns the joules currently available (may be negative while
// reservations are outstanding).
func (r *Regulator) Credits(now time.Duration) float64 {
	if !r.capped {
		return 0
	}
	r.advance(now)
	return r.credits
}

func (r *Regulator) advance(now time.Duration) {
	if now < r.last {
		panic(fmt.Sprintf("power: regulator time went backward: %v < %v", now, r.last))
	}
	r.credits += r.rateW * (now - r.last).Seconds()
	if r.credits > r.burstJ {
		r.credits = r.burstJ
	}
	r.last = now
}
