package ssd

import "time"

// TestConfig exposes the unit-test device to the external test package.
var TestConfig = testConfig

// DieFreeAt returns each die's busy-until horizon.
func (d *SSD) DieFreeAt() []time.Duration { return d.dieFreeAt }

// PostPerPage makes the device post every NAND page as its own start/end
// event pair, as postRuns does when co-timed runs interleave.
func (d *SSD) PostPerPage() { d.perPage = true }

// BusyDies returns the number of dies running a page operation.
func (d *SSD) BusyDies() int { return d.busyProg + d.busyRead }
