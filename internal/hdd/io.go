package hdd

import (
	"fmt"
	"math"
	"time"

	"wattio/internal/device"
)

// Submit implements device.Device.
func (d *HDD) Submit(r device.Request, done func()) {
	if err := r.Validate(d.cfg.CapacityBytes); err != nil {
		panic(fmt.Sprintf("hdd %s: %v", d.name, err))
	}
	if done == nil {
		panic("hdd: Submit with nil done")
	}
	switch d.spin {
	case spinning:
		d.begin(r, done)
	case flushing:
		// A standby request is being honored but IO arrived first:
		// abort the standby and serve it.
		d.spin = spinning
		d.begin(r, done)
	default:
		d.pendingIOs = append(d.pendingIOs, pendingIO{r, done})
		d.Wake() // no-op unless fully spun down
	}
}

// begin runs command overhead, then routes to the read or write path.
func (d *HDD) begin(r device.Request, done func()) {
	_, end := occupy(&d.cmdFreeAt, d.eng.Now(), d.cfg.CmdTime)
	d.eng.Post(end, func() {
		if r.Op == device.OpRead {
			d.queue = append(d.queue, access{r.Offset, r.Size, true, done})
			d.taps.queueDepth.Set(int64(len(d.queue)))
			d.kick()
		} else {
			d.write(r, done)
		}
	})
}

// write transfers data over the link into the write cache, acknowledges
// the host, and queues a drain access. Cache pressure blocks admission
// FIFO, which is the backpressure that bounds sustained random-write
// throughput once the cache absorption transient is spent.
func (d *HDD) write(r device.Request, done func()) {
	admit := func() {
		start, end := occupy(&d.linkFreeAt, d.eng.Now(), d.linkTime(r.Size))
		d.eng.Post(start, func() { d.meter.Set(cIface, d.ifaceUW, d.eng.Now()) })
		d.eng.Post(end, func() {
			d.meter.Set(cIface, 0, d.eng.Now())
			done()
			d.queue = append(d.queue, access{r.Offset, r.Size, false, nil})
			d.taps.queueDepth.Set(int64(len(d.queue)))
			d.kick()
		})
	}
	if len(d.cacheWait) == 0 && d.dirty+r.Size <= d.cfg.CacheBytes {
		d.dirty += r.Size
		admit()
		return
	}
	d.cacheWait = append(d.cacheWait, cacheWaiter{r.Size, admit})
}

// kick starts the head on the best pending access if it is free. Reads
// are preferred over cache drains, mirroring production firmware.
func (d *HDD) kick() {
	if d.headBusy || len(d.queue) == 0 {
		return
	}
	if d.spin != spinning && d.spin != flushing {
		return
	}
	idx := d.pick()
	a := d.queue[idx]
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
	d.taps.queueDepth.Set(int64(len(d.queue)))
	d.headBusy = true
	d.service(a)
}

// pick selects the queued access with the shortest positioning time
// (NCQ), preferring reads. With NCQ disabled it is plain FIFO.
func (d *HDD) pick() int {
	if d.cfg.DisableNCQ {
		return 0
	}
	best, bestDist := -1, int64(math.MaxInt64)
	bestRead := false
	for i, a := range d.queue {
		dist := a.offset - d.headPos
		if dist < 0 {
			dist = -dist
		}
		if (a.read && !bestRead) || (a.read == bestRead && dist < bestDist) {
			best, bestDist, bestRead = i, dist, a.read
		}
	}
	return best
}

// service performs one media access: seek, rotational wait, media
// transfer; then for reads, the link transfer back to the host.
func (d *HDD) service(a access) {
	now := d.eng.Now()
	seek := d.seekTime(d.headPos, a.offset)
	rot := time.Duration(0)
	if a.offset != d.lastEnd {
		// Not a streaming continuation: wait for the sector to come
		// around. Uniform over one revolution.
		rot = time.Duration(d.rng.Float64() * float64(d.revolution))
	} else {
		seek = 0
	}
	xfer := d.mediaTime(a.offset, a.size)

	if seek > 0 {
		d.taps.seeks.Inc()
		d.taps.seekNs.Observe(int64(seek))
		d.tr.Span(d.laneHead, "hdd", "seek", now, now+seek)
		d.meter.Set(cSeek, d.seekUW, now)
		d.eng.PostAfter(seek, func() { d.meter.Set(cSeek, 0, d.eng.Now()) })
	}
	xferStart := now + seek + rot
	if d.tr.Enabled() {
		name := "drain"
		if a.read {
			name = "read"
		}
		d.tr.Span(d.laneHead, "hdd", name, xferStart, xferStart+xfer)
	}
	d.eng.Post(xferStart, func() { d.meter.Set(cXfer, d.xferUW, d.eng.Now()) })
	d.eng.Post(xferStart+xfer, func() {
		t := d.eng.Now()
		d.meter.Set(cXfer, 0, t)
		d.headPos = a.offset + a.size
		d.lastEnd = d.headPos
		if a.read {
			start, end := occupy(&d.linkFreeAt, t, d.linkTime(a.size))
			d.eng.Post(start, func() { d.meter.Set(cIface, d.ifaceUW, d.eng.Now()) })
			d.eng.Post(end, func() {
				d.meter.Set(cIface, 0, d.eng.Now())
				a.done()
			})
		} else {
			d.drainComplete(a.size)
		}
		d.headBusy = false
		d.kick()
		d.maybeFinishFlush()
	})
}

// drainComplete returns cache space and admits blocked writes FIFO.
func (d *HDD) drainComplete(bytes int64) {
	d.taps.drains.Inc()
	d.dirty -= bytes
	if d.dirty < 0 {
		panic("hdd: cache over-drained")
	}
	for len(d.cacheWait) > 0 && d.dirty+d.cacheWait[0].bytes <= d.cfg.CacheBytes {
		w := d.cacheWait[0]
		d.cacheWait = d.cacheWait[1:]
		d.dirty += w.bytes
		w.cont()
	}
}

// seekTime models actuator travel as base + full-stroke cost scaled by
// the square root of normalized distance.
func (d *HDD) seekTime(from, to int64) time.Duration {
	if from == to {
		return 0
	}
	dist := float64(to - from)
	if dist < 0 {
		dist = -dist
	}
	frac := dist / float64(d.cfg.CapacityBytes)
	return d.cfg.SeekBase + time.Duration(float64(d.cfg.SeekFull)*math.Sqrt(frac))
}

// mediaTime returns the media transfer time at the zone containing off.
func (d *HDD) mediaTime(off, size int64) time.Duration {
	frac := float64(off) / float64(d.cfg.CapacityBytes)
	rate := d.cfg.MediaOuter - (d.cfg.MediaOuter-d.cfg.MediaInner)*frac
	return time.Duration(float64(size) / (rate * 1e6) * float64(time.Second))
}

func (d *HDD) linkTime(n int64) time.Duration {
	return time.Duration(float64(n) / (d.cfg.LinkMBps * 1e6) * float64(time.Second))
}

// EnterStandby implements device.Device: flush the write cache, then
// spin the platters down. The multi-second cost is the paper's central
// caveat about HDD power adaptivity.
func (d *HDD) EnterStandby() error {
	if d.spin != spinning {
		return nil // already flushing, down, or transitioning
	}
	d.spin = flushing
	d.kick()
	d.maybeFinishFlush()
	return nil
}

// maybeFinishFlush starts the spindle deceleration once a requested
// flush has fully drained.
func (d *HDD) maybeFinishFlush() {
	if d.spin != flushing || d.headBusy || len(d.queue) > 0 || d.dirty > 0 {
		return
	}
	now := d.eng.Now()
	d.spin = spinningDown
	d.taps.spinDowns.Inc()
	d.tr.Instant(d.lane, "hdd", "spin_down", now)
	d.meter.Set(cSpindle, d.spinDownUW, now)
	d.eng.PostAfter(d.cfg.TSpinDown, func() {
		if d.spin != spinningDown {
			return
		}
		t := d.eng.Now()
		d.spin = spunDown
		d.meter.Set(cSpindle, 0, t)
		d.meter.Set(cElec, d.standbyUW, t)
		if len(d.pendingIOs) > 0 {
			d.Wake()
		}
	})
	return
}

// Wake implements device.Device: spin the platters back up. IO queued
// during the transition is served when the spindle reaches speed.
func (d *HDD) Wake() error {
	if d.spin != spunDown {
		return nil
	}
	now := d.eng.Now()
	d.spin = spinningUp
	d.taps.spinUps.Inc()
	d.tr.Instant(d.lane, "hdd", "spin_up", now)
	d.meter.Set(cElec, d.elecUW, now)
	d.meter.Set(cSpindle, d.spinUpUW, now)
	d.eng.PostAfter(d.cfg.TSpinUp, func() {
		t := d.eng.Now()
		d.spin = spinning
		d.meter.Set(cSpindle, d.spindleUW, t)
		ps := d.pendingIOs
		d.pendingIOs = nil
		for _, p := range ps {
			d.begin(p.r, p.done)
		}
	})
	return nil
}

// occupy reserves a serialized resource exactly as in internal/ssd.
func occupy(freeAt *time.Duration, now, dur time.Duration) (start, end time.Duration) {
	start = max(now, *freeAt)
	end = start + dur
	*freeAt = end
	return start, end
}

var _ device.Device = (*HDD)(nil)
