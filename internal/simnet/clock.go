package simnet

import (
	"math"
	"sync/atomic"
)

// Clock is a per-rank logical clock measured in virtual seconds. It sits on
// every send/receive hot path, so it is lock-free: the time is stored as the
// IEEE-754 bit pattern of a float64 in one atomic word. The owning rank is
// the only writer (the mpi.Proc contract), while statistics collectors and
// other harness readers read it concurrently; the CAS loops below therefore
// never contend in practice and exist only to keep the type safe under
// arbitrary concurrent use.
type Clock struct {
	bits atomic.Uint64
}

// Now returns the current virtual time.
func (c *Clock) Now() float64 {
	return math.Float64frombits(c.bits.Load())
}

// Advance moves the clock forward by d seconds (negative d is ignored) and
// returns the new time.
func (c *Clock) Advance(d float64) float64 {
	for {
		old := c.bits.Load()
		t := math.Float64frombits(old)
		if d <= 0 {
			return t
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(t+d)) {
			return t + d
		}
	}
}

// AdvanceTo moves the clock forward to t if t is later than the current time
// and returns the new time.
func (c *Clock) AdvanceTo(t float64) float64 {
	for {
		old := c.bits.Load()
		now := math.Float64frombits(old)
		if t <= now {
			return now
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(t)) {
			return t
		}
	}
}

// Set forces the clock to t. It is used when a rank rolls back to a
// checkpoint: virtual time is restored along with the process state.
func (c *Clock) Set(t float64) {
	c.bits.Store(math.Float64bits(t))
}
