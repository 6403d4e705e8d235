package adaptive

import (
	"fmt"

	"wattio/internal/device"
)

// TierManager masks the slow tier's standby/spin-up latency (§4:
// "the longer standby/spin-up latencies of HDDs may be masked by
// temporarily absorbing writes with SSDs"). While the slow device is in
// standby, writes land in a log region on the fast device and an index
// remembers where; reads of absorbed blocks are served from the fast
// tier, and everything else wakes the slow tier. Flush drains the log
// back once the slow tier is awake.
type TierManager struct {
	fast, slow device.Device

	// The log region occupies [logBase, logBase+logCap) on the fast
	// device and is allocated as a ring of whole blocks.
	logBase, logCap int64
	logHead         int64 // next allocation offset relative to logBase

	// index maps slow-tier offset → fast-tier log offset for absorbed
	// blocks. Blocks are tracked at write granularity; partially
	// overlapping rewrites are the caller's (filesystem's) problem, as
	// with any block log.
	index map[int64]entry
	// homes lists the index's slow-tier offsets in the order they were
	// first absorbed: the order Flush writes them home in.
	homes []int64

	// AbsorbedWrites and AbsorbedBytes count writes the fast tier took
	// on the slow tier's behalf.
	AbsorbedWrites int
	AbsorbedBytes  int64
}

type entry struct {
	fastOff int64
	size    int64
}

// NewTierManager builds a tier pair. The log region must fit inside the
// fast device.
func NewTierManager(fast, slow device.Device, logBase, logCap int64) (*TierManager, error) {
	switch {
	case logCap <= 0:
		return nil, fmt.Errorf("adaptive: tier log capacity must be positive")
	case logBase < 0 || logBase+logCap > fast.CapacityBytes():
		return nil, fmt.Errorf("adaptive: tier log [%d, %d) outside fast device", logBase, logBase+logCap)
	}
	return &TierManager{
		fast: fast, slow: slow,
		logBase: logBase, logCap: logCap,
		index: make(map[int64]entry),
	}, nil
}

// PendingBytes returns bytes absorbed and not yet flushed.
func (t *TierManager) PendingBytes() int64 {
	var sum int64
	for _, e := range t.index {
		sum += e.size
	}
	return sum
}

// Submit routes one request. Writes go to the slow tier unless it is in
// standby, in which case they are absorbed into the fast tier's log
// (falling back to waking the slow tier only when the log is full).
// Reads are served from the log when the block was absorbed.
func (t *TierManager) Submit(req device.Request, done func()) {
	if err := req.Validate(t.slow.CapacityBytes()); err != nil {
		panic(fmt.Sprintf("adaptive: tier: %v", err))
	}
	if req.Op == device.OpRead {
		if e, ok := t.index[req.Offset]; ok && e.size >= req.Size {
			t.fast.Submit(device.Request{Op: device.OpRead, Offset: e.fastOff, Size: req.Size}, done)
			return
		}
		t.slow.Submit(req, done) // wakes the slow tier if needed
		return
	}
	if !t.slow.Standby() {
		t.slow.Submit(req, done)
		return
	}
	off, ok := t.allocate(req.Size)
	if !ok {
		// Log full: no choice but to pay the spin-up.
		t.slow.Submit(req, done)
		return
	}
	if _, ok := t.index[req.Offset]; !ok {
		t.homes = append(t.homes, req.Offset)
	}
	t.index[req.Offset] = entry{fastOff: off, size: req.Size}
	t.AbsorbedWrites++
	t.AbsorbedBytes += req.Size
	t.fast.Submit(device.Request{Op: device.OpWrite, Offset: off, Size: req.Size}, done)
}

// allocate carves req bytes from the log ring; ok is false if the log
// has no room until the next flush.
func (t *TierManager) allocate(size int64) (int64, bool) {
	if t.logHead+size > t.logCap {
		return 0, false
	}
	off := t.logBase + t.logHead
	t.logHead += size
	return off, true
}

// Flush wakes the slow tier and migrates every absorbed block back:
// read from the fast log, write to the home location. The home writes
// are issued in absorption order, each once its own read and every
// earlier one have landed, so the slow tier sees the same sequence on
// every run. done runs when all blocks have landed; the log is then
// empty.
func (t *TierManager) Flush(done func()) {
	if err := t.slow.Wake(); err != nil && err != device.ErrNotSupported {
		panic(fmt.Sprintf("adaptive: tier flush wake: %v", err))
	}
	n := len(t.homes)
	if n == 0 {
		done()
		return
	}
	read := make([]bool, n)
	next, remaining := 0, n
	for i, home := range t.homes {
		e := t.index[home]
		t.fast.Submit(device.Request{Op: device.OpRead, Offset: e.fastOff, Size: e.size}, func() {
			read[i] = true
			for ; next < n && read[next]; next++ {
				home := t.homes[next]
				t.slow.Submit(device.Request{Op: device.OpWrite, Offset: home, Size: t.index[home].size}, func() {
					remaining--
					if remaining == 0 {
						t.index = make(map[int64]entry)
						t.homes = t.homes[:0]
						t.logHead = 0
						done()
					}
				})
			}
		})
	}
}

// TotalPower returns the tier pair's combined draw.
func (t *TierManager) TotalPower() float64 {
	return t.fast.InstantPower() + t.slow.InstantPower()
}
