package ssd

import (
	"wattio/internal/device"
	"wattio/internal/power"
)

// Autonomous power state transitions (APST): when enabled and the
// device has fully quiesced (no inflight IO, empty write buffer), an
// idle timer walks it down the configured non-operational states; the
// next command pays the state's exit latency. This file owns that state
// machine; the hooks are armAPST (at every quiesce point) and
// exitNonOp (at Submit).

// SetAPST enables or disables autonomous transitions, as the NVMe APST
// feature (FID 0x0C) does. Disabling while in a non-operational state
// wakes the device.
func (d *SSD) SetAPST(enable bool) error {
	if len(d.cfg.NonOpStates) == 0 {
		return device.ErrNotSupported
	}
	d.apstEnabled = enable
	if !enable {
		d.exitNonOp()
		d.stopAPSTTimer()
	} else {
		d.armAPST()
	}
	return nil
}

// APST reports whether autonomous transitions are enabled.
func (d *SSD) APST() bool { return d.apstEnabled }

// armAPST (re)schedules the next autonomous transition if the device is
// idle. Called at every point the device may have just quiesced.
func (d *SSD) armAPST() {
	if !d.apstEnabled || d.mode != awake || d.active() {
		return
	}
	next := d.nonOpIndex + 1
	if next >= len(d.cfg.NonOpStates) {
		return
	}
	if d.apstArmed {
		return // already armed
	}
	// The idle clock starts now; deeper states are relative to the
	// same quiesce instant, so the increment is the threshold delta.
	wait := d.cfg.NonOpStates[next].IdleBefore
	if next > 0 {
		wait -= d.cfg.NonOpStates[next-1].IdleBefore
	}
	d.apstArmed = true
	if d.apstTimer == nil {
		d.apstTimer = d.eng.After(wait, d.apstFire)
	} else {
		d.apstTimer.RescheduleAfter(wait)
	}
}

func (d *SSD) apstFire() {
	d.apstArmed = false
	if !d.apstEnabled || d.mode != awake || d.active() {
		return
	}
	d.enterNonOp(d.nonOpIndex + 1)
	d.armAPST() // chain toward deeper states
}

func (d *SSD) stopAPSTTimer() {
	if d.apstArmed {
		d.apstTimer.Stop()
		d.apstArmed = false
	}
}

// enterNonOp drops the device into non-operational state i.
func (d *SSD) enterNonOp(i int) {
	now := d.eng.Now()
	d.nonOpIndex = i
	d.meter.Set(cCtrl, power.MicroW(d.cfg.NonOpStates[i].PowerW), now)
	d.meter.Set(cIface, 0, now)
}

// exitNonOp restores operational power and charges the exit latency to
// the next admissions. Safe to call when already operational.
func (d *SSD) exitNonOp() {
	if d.nonOpIndex < 0 {
		return
	}
	now := d.eng.Now()
	st := d.cfg.NonOpStates[d.nonOpIndex]
	d.nonOpIndex = -1
	d.meter.Set(cCtrl, d.ctrlUW, now)
	d.meter.Set(cIface, d.ifaceIdleUW, now)
	if ready := now + st.ExitLatency; ready > d.stateReadyAt {
		d.stateReadyAt = ready
	}
}
