package ssd

import (
	"math/bits"
	"time"

	"wattio/internal/device"
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
	pulseUW    int64
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

// pageOp is a run of NAND page operations (programs or reads) of one
// programPages or readPath call that all start at one instant and end at
// one instant: a power-on stage at start, a hop (see hop), and a
// power-off/bookkeeping event at end. The run's pages sit at
// the offsets o of mask's set bits from its first page (see postRuns).
// Pooled like ssdOp.
type pageOp struct {
	d       *SSD
	group   *ssdOp // read fan-in target; nil for a program
	release int64  // buffer bytes each releasing program frees
	mask    uint64 // the run's pages, as offsets from its first
	nRel    int    // offsets below nRel are programs that free buffer space when they land

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

// hop runs fn, a stage of the IO path, at time at. A stage due now runs
// as a direct call when no other event is queued for now: posted, it
// would fire as soon as the current callback returns, ahead of anything
// else that callback posts for now, so the direct call moves it only
// ahead of the rest of its caller. At every call site that rest touches
// nothing the stage reads or writes, and a stage that posts events of
// its own is called only as its caller's last act (DESIGN.md, "Direct
// hops"). Any other stage is posted, as every stage is under postAll.
func (d *SSD) hop(at time.Duration, fn func()) {
	if at == d.eng.Now() && !d.postAll && !d.eng.DueNow() {
		fn()
		return
	}
	d.eng.Post(at, fn)
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

	ct, eCmd, pulseUW := d.cfg.CmdTimeRead, d.cfg.ECmdReadJ, d.pulseReadUW
	if r.Op == device.OpWrite {
		ct, eCmd, pulseUW = d.cfg.CmdTimeWrite, d.cfg.ECmdWriteJ, d.pulseWriteUW
	}
	start, end := occupy(&d.cmdFreeAt, d.eng.Now(), ct)
	op := d.getOp()
	op.r, op.done, op.sequential, op.eCmd = r, done, sequential, eCmd
	op.pulseUW = pulseUW
	d.hop(start, op.cmdStartFn)
	d.eng.Post(end, op.cmdEndFn)
}

func (op *ssdOp) cmdStart() {
	d := op.d
	d.meter.Set(cCmd, op.pulseUW, d.eng.Now())
}

func (op *ssdOp) cmdEnd() {
	d := op.d
	d.meter.Set(cCmd, 0, d.eng.Now())
	// Admit the host-path energy (command + link transfer) against
	// the power-state regulator before moving data.
	ready := d.admit(op.eCmd + d.linkEnergyJ(op.r.Size))
	d.hop(ready, op.pathReadyFn)
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
	d.hop(xferStart, op.wXferStartFn)
	d.eng.Post(xferEnd, op.wXferEndFn)
}

func (op *ssdOp) wXferStart() {
	d := op.d
	d.meter.Set(cIface, d.ifaceActUW, d.eng.Now())
}

func (op *ssdOp) wXferEnd() {
	d := op.d
	d.meter.Set(cIface, d.ifaceIdleUW, d.eng.Now())
	insert := d.cfg.TWriteAck + time.Duration(float64(op.r.Size)/(d.cfg.InsertBWMBps*1e6)*float64(time.Second))
	d.eng.Post(d.eng.Now()+insert, op.wInsertFn)
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
	d.hop(ready, op.wAckReadyFn)
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
// Every page is ready at the same instant and starts when its die is
// free; postRuns posts the pages that share a start time as one run.
func (d *SSD) programPages(host, amp int, release int64) {
	k := host + amp
	if k == 0 {
		return
	}
	ready := max(d.eng.Now(), d.stateReadyAt)
	dur := d.cfg.TProg + d.pageXfer
	var buf [16]pageRun
	runs := buf[:0]
	for i := 0; i < k; i++ {
		die := d.nextDie
		d.nextDie = d.dieAfter(die)
		start := max(ready, d.dieFreeAt[die])
		d.dieFreeAt[die] = start + dur
		d.taps.pagePrograms.Inc()
		if d.tr.Enabled() {
			d.tr.Span(d.laneDies[die], "ssd", "program", start, start+dur)
		}
		runs = addPage(runs, i, start)
	}
	d.postRuns(runs, k, dur, nil, host, release)
}

// readPath fans page reads out across the dies the request's pages map
// to, then returns the data over the host link in one transfer. Each
// page is admitted against the regulator in turn and starts when both
// it and its die are ready; postRuns posts the pages that share a start
// time as one run.
func (op *ssdOp) readPath() {
	d := op.d
	r := op.r
	firstPage := r.Offset / d.cfg.PageSize
	lastPage := (r.Offset + r.Size - 1) / d.cfg.PageSize
	k := int(lastPage - firstPage + 1)
	op.remaining = k
	dur := d.cfg.TRead + d.pageXfer
	first := int(firstPage % int64(len(d.dieFreeAt)))
	var buf [16]pageRun
	runs := buf[:0]
	for i, die := 0, first; i < k; i++ {
		start := max(d.admit(d.eRead), d.dieFreeAt[die])
		d.dieFreeAt[die] = start + dur
		d.taps.pageReads.Inc()
		if d.tr.Enabled() {
			d.tr.Span(d.laneDies[die], "ssd", "read", start, start+dur)
		}
		runs = addPage(runs, i, start)
		die = d.dieAfter(die)
	}
	d.postRuns(runs, k, dur, op, 0, 0)
}

// pageRun is a group of one call's pages that start at one instant: the
// pages lo+o for each set bit o of mask. A run spans at most 64 pages; a
// start time whose pages span more takes several runs.
type pageRun struct {
	at   time.Duration
	mask uint64
	lo   int
	pg   *pageOp
}

// hi returns the run's last page.
func (r *pageRun) hi() int { return r.lo + 63 - bits.LeadingZeros64(r.mask) }

// addPage adds the call's page i, starting at at, to the run of pages
// that start then, and opens a run when none spans it.
func addPage(runs []pageRun, i int, at time.Duration) []pageRun {
	for j := len(runs) - 1; j >= 0; j-- {
		if r := &runs[j]; r.at == at && i-r.lo < 64 {
			r.mask |= 1 << (i - r.lo)
			return runs
		}
	}
	return append(runs, pageRun{at: at, mask: 1, lo: i})
}

// postRuns posts one call's page runs, each lasting dur, as one pageOp
// apiece. The call's pages are 0…k-1 on consecutive dies; the first
// `host` of them each free `release` buffer bytes when they land, and
// group is the read to fan in to (nil for programs).
//
// Posted per page, a start and an end event each, in page order, the
// call's events would take one contiguous range of sequence numbers,
// since nothing else posts in between. So at any instant the call's
// events fire as one block, in page order, in the same place in the
// global (time, seq) order. postRuns posts every run's start and end in
// (time, first page) order, so the block at each instant is the same
// bodies in the same order, provided the runs co-timed there cover
// disjoint page ranges: a run's body runs its pages in page order. A
// run's end can fall at another's start. When their page ranges
// interleave, the call is posted per page instead, the only case that
// still costs two events per page.
func (d *SSD) postRuns(runs []pageRun, k int, dur time.Duration, group *ssdOp, host int, release int64) {
	// Runs open in first-page order; a stable sort by start keeps
	// co-timed runs in it. Ends fall in the same order as starts.
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runs[j].at < runs[j-1].at; j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
	if d.postAll || len(runs) > 1 && interleaved(runs, dur) {
		d.postPerPage(runs, k, dur, group, host, release)
		return
	}
	for i, j := 0, 0; j < len(runs); {
		r, at, end := nextEvent(runs, &i, &j, dur)
		if end {
			d.eng.Post(at, r.pg.endFn)
			continue
		}
		pg := d.getPage()
		pg.group, pg.release, pg.mask, pg.nRel = group, release, r.mask, max(host-r.lo, 0)
		r.pg = pg
		d.hop(at, pg.startFn)
	}
}

// nextEvent returns the run whose start or end comes next in (time,
// first page) order, the event's time, and whether it is the end; i is
// the next run to start and j the next to end. Ends come in the order of
// starts, and a run's start always comes before its end, since dur is
// positive (Config.validate).
func nextEvent(runs []pageRun, i, j *int, dur time.Duration) (r *pageRun, at time.Duration, end bool) {
	if *i < len(runs) {
		s, e := &runs[*i], &runs[*j]
		if s.at < e.at+dur || s.at == e.at+dur && s.lo < e.lo {
			*i++
			return s, s.at, false
		}
	}
	e := &runs[*j]
	*j++
	return e, e.at + dur, true
}

// interleaved reports whether two of the runs, sorted by start, have
// co-timed events whose page ranges interleave.
func interleaved(runs []pageRun, dur time.Duration) bool {
	prevAt, prevHi := time.Duration(-1), 0
	for i, j := 0, 0; j < len(runs); {
		r, at, _ := nextEvent(runs, &i, &j, dur)
		if at == prevAt && r.lo < prevHi {
			return true
		}
		prevAt, prevHi = at, r.hi()
	}
	return false
}

// postPerPage issues each of the call's pages as a run of one, its start
// (a hop) and end in page order: the events the runs replace.
func (d *SSD) postPerPage(runs []pageRun, k int, dur time.Duration, group *ssdOp, host int, release int64) {
	for i := 0; i < k; i++ {
		var at time.Duration
		for _, r := range runs {
			if o := i - r.lo; o >= 0 && o < 64 && r.mask>>o&1 == 1 {
				at = r.at
				break
			}
		}
		pg := d.getPage()
		pg.group, pg.release, pg.mask, pg.nRel = group, release, 1, 0
		if i < host {
			pg.nRel = 1
		}
		d.hop(at, pg.startFn)
		d.eng.Post(at+dur, pg.endFn)
	}
}

// dieAfter returns the die that follows die in the write stripe.
func (d *SSD) dieAfter(die int) int {
	if die++; die == len(d.dieFreeAt) {
		return 0
	}
	return die
}

// setDies sets the dies' meter component to the busy dies' draw,
// rounded to µW.
func (d *SSD) setDies() {
	nw := int64(d.busyProg)*d.progNW + int64(d.busyRead)*d.readNW
	d.meter.Set(cDies, (nw+500)/1000, d.eng.Now())
}

// start powers the run's dies.
func (pg *pageOp) start() {
	d := pg.d
	k := bits.OnesCount64(pg.mask)
	d.taps.diesBusy.Add(int64(k))
	if pg.group != nil {
		d.busyRead += k
	} else {
		d.busyProg += k
	}
	d.setDies()
}

// end powers the run's k dies off and does their pages' bookkeeping in
// one step: a read's fan-in count drops by k, and programs free the
// releasing pages' buffer bytes and arm APST.
func (pg *pageOp) end() {
	d, mask, group, nRel, release := pg.d, pg.mask, pg.group, pg.nRel, pg.release
	pg.group = nil
	pg.next = d.freePage
	d.freePage = pg
	k := bits.OnesCount64(mask)
	d.taps.diesBusy.Add(-int64(k))
	if group != nil {
		d.busyRead -= k
	} else {
		d.busyProg -= k
	}
	d.setDies()
	if group != nil {
		if group.remaining -= k; group.remaining == 0 {
			group.readFinish()
		}
		return
	}
	if rel := bits.OnesCount64(mask & (uint64(1)<<nRel - 1)); rel > 0 {
		d.releaseBuffer(int64(rel) * release)
	}
	d.armAPST()
}

// readFinish returns the data over the host link once every page has
// landed.
func (op *ssdOp) readFinish() {
	d := op.d
	xferStart, xferEnd := occupy(&d.linkFreeAt, d.eng.Now(), d.linkTime(op.r.Size))
	d.hop(xferStart, op.rXferStartFn)
	d.eng.Post(xferEnd, op.rXferEndFn)
}

func (op *ssdOp) rXferStart() {
	d := op.d
	d.meter.Set(cIface, d.ifaceActUW, d.eng.Now())
}

func (op *ssdOp) rXferEnd() {
	d, done := op.d, op.done
	op.done = nil
	op.next = d.freeOp
	d.freeOp = op
	d.meter.Set(cIface, d.ifaceIdleUW, d.eng.Now())
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
			d.meter.Set(cRipple, 0, d.eng.Now())
		}
		return
	}
	const pLeave = 0.5
	pEnter := pLeave * d.cfg.RippleDuty / (1 - d.cfg.RippleDuty)
	u := d.rng.Float64()
	if d.rippleBurst {
		if u < pLeave {
			d.rippleBurst = false
			d.meter.Set(cRipple, 0, d.eng.Now())
		}
	} else if u < pEnter && d.reg.Credits(d.eng.Now()) >= 0 {
		// Background bursts defer while the device is in energy debt:
		// capped firmware schedules GC and mapping flushes into the
		// power budget's slack.
		d.rippleBurst = true
		d.meter.Set(cRipple, d.rippleUW, d.eng.Now())
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
