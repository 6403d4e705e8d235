package ssd

import "time"

// TestConfig exposes the unit-test device to the external test package.
var TestConfig = testConfig

// DieFreeAt returns each die's busy-until horizon.
func (d *SSD) DieFreeAt() []time.Duration { return d.dieFreeAt }

// PostAll makes the device post every event its IO path folds away: each
// zero-delay hop is posted, and each NAND page is its own start/end event
// pair, as postRuns does when co-timed runs interleave.
func (d *SSD) PostAll() { d.postAll = true }

// BusyDies returns the number of dies running a page operation.
func (d *SSD) BusyDies() int { return d.busyProg + d.busyRead }
