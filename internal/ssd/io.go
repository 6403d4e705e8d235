package ssd

import (
	"time"

	"wattio/internal/device"
	"wattio/internal/power"
)

// occupy reserves a serialized resource whose availability horizon is
// *freeAt: the reservation starts when both the caller and the resource
// are ready and extends the horizon by dur.
func occupy(freeAt *time.Duration, now, dur time.Duration) (start, end time.Duration) {
	start = max(now, *freeAt)
	end = start + dur
	*freeAt = end
	return start, end
}

// linkTime returns the host-link occupancy for n bytes.
func (d *SSD) linkTime(n int64) time.Duration {
	return time.Duration(float64(n) / (d.cfg.LinkMBps * 1e6) * float64(time.Second))
}

// linkEnergyJ returns the extra interface energy for transferring n bytes.
func (d *SSD) linkEnergyJ(n int64) float64 {
	return (d.cfg.PIfaceActive - d.cfg.PIfaceIdle) * d.linkTime(n).Seconds()
}

// admit reserves regulated energy and returns the virtual time the
// operation may start, applying the firmware throttle quantum: delayed
// operations are released on quantum boundaries, which is what turns
// smooth energy debt into measurable tail-latency spikes.
func (d *SSD) admit(energy float64) time.Duration {
	now := d.eng.Now()
	delay := d.reg.Admit(now, energy)
	ready := now + delay
	if delay > 0 {
		d.taps.stalls.Inc()
		if d.cfg.ThrottleQuantum > 0 {
			q := d.cfg.ThrottleQuantum
			ready = (ready + q - 1) / q * q
			d.taps.throttleRels.Inc()
			d.tr.Instant(d.lane, "ssd", "throttle_release", ready)
		}
		d.taps.stallNs.Observe(int64(ready - now))
	}
	return max(ready, d.stateReadyAt)
}

// ssdOp carries one request through the controller pipeline. The record
// and its method-value callbacks are built once and recycled through a
// per-device free list, so a steady IO stream allocates nothing: every
// stage that used to capture the request in a fresh closure instead
// reads it from the op. The op is recycled at the final stage of its
// path, after copying what the tail of that stage still needs — a
// recycled op may be handed out again by the very next Submit.
type ssdOp struct {
	d          *SSD
	r          device.Request
	done       func()
	sequential bool
	pulseW     float64
	eCmd       float64
	nandBytes  float64
	remaining  int // read path: page ops still in flight

	cmdStartFn   func()
	cmdEndFn     func()
	pathReadyFn  func()
	wReservedFn  func()
	wXferStartFn func()
	wXferEndFn   func()
	wInsertFn    func()
	wAckReadyFn  func()
	rXferStartFn func()
	rXferEndFn   func()

	next *ssdOp
}

// getOp draws a request op from the free list, building the callback
// set only on first allocation.
func (d *SSD) getOp() *ssdOp {
	op := d.freeOp
	if op == nil {
		op = &ssdOp{d: d}
		op.cmdStartFn = op.cmdStart
		op.cmdEndFn = op.cmdEnd
		op.pathReadyFn = op.pathReady
		op.wReservedFn = op.wReserved
		op.wXferStartFn = op.wXferStart
		op.wXferEndFn = op.wXferEnd
		op.wInsertFn = op.wInsert
		op.wAckReadyFn = op.wAckReady
		op.rXferStartFn = op.rXferStart
		op.rXferEndFn = op.rXferEnd
	} else {
		d.freeOp = op.next
	}
	return op
}

// pageOp is a run of k NAND page operations (programs or reads) on the
// consecutive dies die, die+1, … (wrapping at the die count) that all
// start at one instant and end at one instant: a power-on event at
// start and a power-off/bookkeeping event at end, both riding the first
// die's chain. Every read is a run of one, and so is each program of a
// write whose pages cannot all start at once (see programPages). Pooled
// like ssdOp.
type pageOp struct {
	d       *SSD
	die     int    // first die of the run
	group   *ssdOp // read fan-in target; nil for a program
	release int64  // buffer bytes each releasing program frees
	// k and nRel are int32 so the record fits Go's 64-byte size class.
	k    int32 // dies in the run
	nRel int32 // leading programs that free buffer space when they land

	startFn func()
	endFn   func()

	next *pageOp
}

func (d *SSD) getPage() *pageOp {
	pg := d.freePage
	if pg == nil {
		pg = &pageOp{d: d}
		pg.startFn = pg.start
		pg.endFn = pg.end
	} else {
		d.freePage = pg.next
	}
	return pg
}

// begin runs a request through the controller command stage, then hands
// it to the read or write path. It must run with the device awake.
func (d *SSD) begin(r device.Request, done func()) {
	d.inflight++
	d.ensureRipple()

	// Sequentiality is a property of submission order; record it now.
	sequential := true
	if r.Op == device.OpWrite {
		sequential = r.Offset == d.lastWriteEnd
		d.lastWriteEnd = r.Offset + r.Size
	}

	ct, eCmd := d.cfg.CmdTimeRead, d.cfg.ECmdReadJ
	if r.Op == device.OpWrite {
		ct, eCmd = d.cfg.CmdTimeWrite, d.cfg.ECmdWriteJ
	}
	pulseW := d.pulseWRead
	if r.Op == device.OpWrite {
		pulseW = d.pulseWWrite
	}
	start, end := occupy(&d.cmdFreeAt, d.eng.Now(), ct)
	op := d.getOp()
	op.r, op.done, op.sequential, op.eCmd = r, done, sequential, eCmd
	op.pulseW = pulseW
	d.chCmd.Post(start, op.cmdStartFn)
	d.chCmd.Post(end, op.cmdEndFn)
}

func (op *ssdOp) cmdStart() {
	d := op.d
	d.meter.Set(d.cCmd, op.pulseW, d.eng.Now())
}

func (op *ssdOp) cmdEnd() {
	d := op.d
	d.meter.Set(d.cCmd, 0, d.eng.Now())
	// Admit the host-path energy (command + link transfer) against
	// the power-state regulator before moving data.
	ready := d.admit(op.eCmd + d.linkEnergyJ(op.r.Size))
	d.chReady.PostLoose(ready, op.pathReadyFn)
}

func (op *ssdOp) pathReady() {
	if op.r.Op == device.OpWrite {
		op.d.reserveBuffer(op.r.Size, op.wReservedFn)
	} else {
		op.readPath()
	}
}

// Write path: reserve write-buffer space (backpressure lives here), move
// the data over the host link, then acknowledge after the DRAM insert
// AND after the write's NAND energy has been admitted by the power-state
// regulator. The admission at the ack point is firmware admission
// control: under a binding cap the device cannot let the buffer absorb
// energy it would have to pay back inside the same averaging window, so
// power debt surfaces as host-visible write latency — the mechanism
// behind the paper's Fig. 5 latency inflation.

func (op *ssdOp) wReserved() {
	d := op.d
	xferStart, xferEnd := occupy(&d.linkFreeAt, d.eng.Now(), d.linkTime(op.r.Size))
	d.chLink.Post(xferStart, op.wXferStartFn)
	d.chLink.Post(xferEnd, op.wXferEndFn)
}

func (op *ssdOp) wXferStart() {
	d := op.d
	d.meter.Set(d.cIface, d.cfg.PIfaceActive, d.eng.Now())
}

func (op *ssdOp) wXferEnd() {
	d := op.d
	d.meter.Set(d.cIface, d.cfg.PIfaceIdle, d.eng.Now())
	insert := d.cfg.TWriteAck + time.Duration(float64(op.r.Size)/(d.cfg.InsertBWMBps*1e6)*float64(time.Second))
	d.chInsert.PostLoose(d.eng.Now()+insert, op.wInsertFn)
}

func (op *ssdOp) wInsert() {
	d := op.d
	// The FTL coalesces writes into open pages, so NAND work is
	// proportional to bytes, not request count: sub-page writes share
	// page programs.
	nandBytes := float64(op.r.Size)
	if !op.sequential && d.cfg.WriteAmp > 1 {
		nandBytes *= d.cfg.WriteAmp
	}
	op.nandBytes = nandBytes
	energy := d.eProg * nandBytes / float64(d.cfg.PageSize)
	ready := d.admit(energy)
	d.chReady.PostLoose(ready, op.wAckReadyFn)
}

func (op *ssdOp) wAckReady() {
	d, done := op.d, op.done
	hostBytes := op.r.Size
	ampBytes := int64(op.nandBytes) - hostBytes
	// Recycle before the completion runs: done() may submit the next IO
	// and that Submit may reuse this very op.
	op.done = nil
	op.next = d.freeOp
	d.freeOp = op
	d.inflight--
	done()
	d.spawnPrograms(hostBytes, ampBytes)
}

// spawnPrograms accumulates acknowledged bytes into the device's open
// pages and issues a NAND program for every full page. Host bytes free
// write-buffer space when their page lands; write-amplification bytes
// are internal work and free nothing.
func (d *SSD) spawnPrograms(hostBytes, ampBytes int64) {
	d.hostPending += hostBytes
	d.ampPending += ampBytes
	host := d.hostPending / d.cfg.PageSize
	amp := d.ampPending / d.cfg.PageSize
	d.hostPending -= host * d.cfg.PageSize
	d.ampPending -= amp * d.cfg.PageSize
	d.programPages(int(host), int(amp), d.cfg.PageSize)
	// (Re)arm the open-page flush: if no further writes arrive, the
	// partial pages program after a short dwell, as real FTLs flush on
	// idle so buffered data reaches durable media. One owned timer
	// serves every arm; re-sifting it replaces the old stop+realloc.
	if d.hostPending > 0 || d.ampPending > 0 {
		if d.flushTimer == nil {
			d.flushTimer = d.eng.After(10*time.Millisecond, d.flushOpenPages)
		} else {
			d.flushTimer.RescheduleAfter(10 * time.Millisecond)
		}
	} else if d.flushTimer != nil {
		d.flushTimer.Stop()
	}
}

// flushOpenPages programs any open partial pages after the idle dwell.
func (d *SSD) flushOpenPages() {
	d.taps.pageFlushes.Inc()
	d.tr.Instant(d.lane, "ssd", "open_page_flush", d.eng.Now())
	host, amp := 0, 0
	if d.hostPending > 0 {
		host = 1
	}
	if d.ampPending > 0 {
		amp = 1
	}
	d.programPages(host, amp, d.hostPending)
	d.hostPending, d.ampPending = 0, 0
}

// programPages schedules NAND programs on the next dies in the
// log-structured write stripe: first `host` pages that each release
// `release` buffer bytes when durable, then `amp` write-amplification
// pages that release nothing. Their energy was admitted at the ack point.
//
// Every page is ready at the same instant. When the pages fit on
// distinct dies and all of those dies are free by then, they start
// together and land together, so the whole run is one pageOp: one start
// and one end event on the first die's chain, in place of two per page.
// Posted per page, the run's events would take one contiguous range of
// sequence numbers, since nothing else posts in between; the pair takes
// the same place in the global (time, seq) order, and its bodies run the
// per-page bodies in the same die order. Otherwise each page is a run of
// one, queued behind its own die.
func (d *SSD) programPages(host, amp int, release int64) {
	k, n := host+amp, len(d.chDies)
	if k == 0 {
		return
	}
	ready := max(d.eng.Now(), d.stateReadyAt)
	free := k <= n
	for i, die := 0, d.nextDie; free && i < k; i++ {
		free = d.dieFreeAt[die] <= ready
		die = d.dieAfter(die)
	}
	if free {
		d.postPrograms(k, host, release, ready)
		return
	}
	for i := 0; i < k; i++ {
		nRel := 0
		if i < host {
			nRel = 1
		}
		d.postPrograms(1, nRel, release, max(ready, d.dieFreeAt[d.nextDie]))
	}
}

// postPrograms posts one run of k programs starting at start on the next
// k dies of the stripe, the first nRel of them releasing `release`
// buffer bytes each.
func (d *SSD) postPrograms(k, nRel int, release int64, start time.Duration) {
	end := start + d.cfg.TProg + d.pageXfer
	pg := d.getPage()
	pg.die, pg.k, pg.group, pg.nRel, pg.release = d.nextDie, int32(k), nil, int32(nRel), release
	for i := 0; i < k; i++ {
		die := d.nextDie
		d.nextDie = d.dieAfter(die)
		d.dieFreeAt[die] = end
		d.taps.pagePrograms.Inc()
		if d.tr.Enabled() {
			d.tr.Span(d.laneDies[die], "ssd", "program", start, end)
		}
	}
	d.chDies[pg.die].Post(start, pg.startFn)
	d.chDies[pg.die].Post(end, pg.endFn)
}

// dieAfter returns the die that follows die in the write stripe.
func (d *SSD) dieAfter(die int) int {
	if die++; die == len(d.chDies) {
		return 0
	}
	return die
}

func (pg *pageOp) start() {
	d := pg.d
	d.taps.diesBusy.Add(int64(pg.k))
	w := d.pProgEff
	if pg.group != nil {
		w = d.pReadEff
	}
	now := d.eng.Now()
	for i, die := int32(0), pg.die; i < pg.k; i++ {
		d.meter.Set(d.cDie0+power.Component(die), w, now)
		die = d.dieAfter(die)
	}
}

func (pg *pageOp) end() {
	d, die, k, group, nRel, release := pg.d, pg.die, pg.k, pg.group, pg.nRel, pg.release
	pg.group = nil
	pg.next = d.freePage
	d.freePage = pg
	d.taps.diesBusy.Add(int64(-k))
	now := d.eng.Now()
	for i := int32(0); i < k; i++ {
		d.meter.Set(d.cDie0+power.Component(die), 0, now)
		die = d.dieAfter(die)
		if group != nil {
			group.remaining--
			if group.remaining == 0 {
				group.readFinish()
			}
			continue
		}
		if i < nRel {
			d.releaseBuffer(release)
		}
		d.armAPST()
	}
}

// readPath fans page reads out across the dies the request's pages map
// to, then returns the data over the host link in one transfer.
func (op *ssdOp) readPath() {
	d := op.d
	r := op.r
	firstPage := r.Offset / d.cfg.PageSize
	lastPage := (r.Offset + r.Size - 1) / d.cfg.PageSize
	op.remaining = int(lastPage - firstPage + 1)
	opDur := d.cfg.TRead + d.pageXfer
	for p := firstPage; p <= lastPage; p++ {
		die := int(p % int64(len(d.chDies)))
		ready := d.admit(d.eRead)
		start := max(ready, d.dieFreeAt[die])
		end := start + opDur
		d.dieFreeAt[die] = end
		d.taps.pageReads.Inc()
		if d.tr.Enabled() {
			d.tr.Span(d.laneDies[die], "ssd", "read", start, end)
		}
		pg := d.getPage()
		pg.die, pg.k, pg.group, pg.nRel, pg.release = die, 1, op, 0, 0
		d.chDies[die].Post(start, pg.startFn)
		d.chDies[die].Post(end, pg.endFn)
	}
}

// readFinish returns the data over the host link once every page has
// landed.
func (op *ssdOp) readFinish() {
	d := op.d
	xferStart, xferEnd := occupy(&d.linkFreeAt, d.eng.Now(), d.linkTime(op.r.Size))
	d.chLink.Post(xferStart, op.rXferStartFn)
	d.chLink.Post(xferEnd, op.rXferEndFn)
}

func (op *ssdOp) rXferStart() {
	d := op.d
	d.meter.Set(d.cIface, d.cfg.PIfaceActive, d.eng.Now())
}

func (op *ssdOp) rXferEnd() {
	d, done := op.d, op.done
	op.done = nil
	op.next = d.freeOp
	d.freeOp = op
	d.meter.Set(d.cIface, d.cfg.PIfaceIdle, d.eng.Now())
	d.inflight--
	done()
	d.armAPST()
}

// reserveBuffer grants `bytes` of write-buffer space to cont, queuing
// FIFO behind earlier waiters when the buffer is full. FIFO ordering
// (not best-fit) keeps completion latency fair, which matters for the
// tail-latency experiments.
func (d *SSD) reserveBuffer(bytes int64, cont func()) {
	if len(d.bufWaiters) == 0 && d.bufFree >= bytes {
		d.bufFree -= bytes
		cont()
		return
	}
	d.bufWaiters = append(d.bufWaiters, bufWaiter{bytes, cont})
}

// releaseBuffer returns bytes to the buffer and admits waiting writes.
func (d *SSD) releaseBuffer(bytes int64) {
	d.bufFree += bytes
	if d.bufFree > d.cfg.BufferBytes {
		panic("ssd: buffer over-released")
	}
	for len(d.bufWaiters) > 0 && d.bufFree >= d.bufWaiters[0].bytes {
		w := d.bufWaiters[0]
		d.bufWaiters = d.bufWaiters[1:]
		d.bufFree -= w.bytes
		w.cont()
	}
}

// bufUsedBytes returns bytes currently held in the write buffer.
func (d *SSD) bufUsedBytes() int64 { return d.cfg.BufferBytes - d.bufFree }

// active reports whether the device has foreground or background work,
// which is when the FTL activity ripple runs.
func (d *SSD) active() bool { return d.inflight > 0 || d.bufUsedBytes() > 0 }

// ensureRipple starts the activity-ripple process if it is configured
// and not already ticking.
func (d *SSD) ensureRipple() {
	if d.cfg.RippleBurstW <= 0 || d.rippleRunning {
		return
	}
	d.rippleRunning = true
	d.rippleTick()
}

// rippleTick advances the two-state burst process. Transition
// probabilities are chosen so the long-run burst fraction equals the
// configured duty cycle: leaving with probability ½ per tick and
// entering with duty/(2(1-duty)).
func (d *SSD) rippleTick() {
	if !d.active() {
		d.rippleRunning = false
		if d.rippleBurst {
			d.rippleBurst = false
			d.meter.Set(d.cRipple, 0, d.eng.Now())
		}
		return
	}
	const pLeave = 0.5
	pEnter := pLeave * d.cfg.RippleDuty / (1 - d.cfg.RippleDuty)
	u := d.rng.Float64()
	if d.rippleBurst {
		if u < pLeave {
			d.rippleBurst = false
			d.meter.Set(d.cRipple, 0, d.eng.Now())
		}
	} else if u < pEnter && d.reg.Credits(d.eng.Now()) >= 0 {
		// Background bursts defer while the device is in energy debt:
		// capped firmware schedules GC and mapping flushes into the
		// power budget's slack.
		d.rippleBurst = true
		d.meter.Set(d.cRipple, d.cfg.RippleBurstW, d.eng.Now())
	}
	dwell := time.Duration(d.rng.Exponential(float64(d.cfg.RippleDwell)))
	if dwell < time.Millisecond {
		dwell = time.Millisecond
	}
	if d.rippleTimer == nil {
		d.rippleTimer = d.eng.After(dwell, d.rippleTick)
	} else {
		d.rippleTimer.RescheduleAfter(dwell)
	}
}

var _ device.Device = (*SSD)(nil)
