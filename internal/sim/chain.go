package sim

import "time"

// Chain is a named source of fire-and-forget events whose Post forwards
// to Engine.Post. Its one caller is perfbench's kernel probe
// (sim.chain_ns_per_event); code in this module posts to the engine.
type Chain struct{ eng *Engine }

// NewChain returns a chain on the engine.
func (e *Engine) NewChain() *Chain { return &Chain{eng: e} }

// Post schedules fn at absolute virtual time at (see Engine.Post).
func (c *Chain) Post(at time.Duration, fn func()) { c.eng.Post(at, fn) }
