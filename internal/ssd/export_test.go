package ssd

import "time"

// TestConfig exposes the unit-test device to the external test package.
var TestConfig = testConfig

// DieFreeAt returns each die's busy-until horizon.
func (d *SSD) DieFreeAt() []time.Duration { return d.dieFreeAt }
