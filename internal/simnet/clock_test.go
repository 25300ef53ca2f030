package simnet

import (
	"sync"
	"testing"
)

func TestClockSemantics(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %g, want 0", c.Now())
	}
	if got := c.Advance(1.5); got != 1.5 || c.Now() != 1.5 {
		t.Fatalf("Advance(1.5) = %g, Now = %g", got, c.Now())
	}
	if got := c.Advance(-1); got != 1.5 {
		t.Fatalf("negative Advance must be ignored, got %g", got)
	}
	if got := c.AdvanceTo(1.0); got != 1.5 {
		t.Fatalf("AdvanceTo into the past must be ignored, got %g", got)
	}
	if got := c.AdvanceTo(2.25); got != 2.25 || c.Now() != 2.25 {
		t.Fatalf("AdvanceTo(2.25) = %g, Now = %g", got, c.Now())
	}
	c.Set(0.5) // rollback restores virtual time backwards
	if c.Now() != 0.5 {
		t.Fatalf("Set(0.5) left the clock at %g", c.Now())
	}
}

// TestClockConcurrentReaders exercises the advertised concurrency shape (one
// writer, many readers) under the race detector: readers must only ever
// observe monotonically consistent values written by the owner.
func TestClockConcurrentReaders(t *testing.T) {
	var c Clock
	const steps = 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := c.Now()
				if now < last {
					t.Errorf("reader observed time going backwards: %g after %g", now, last)
					return
				}
				last = now
			}
		}()
	}
	for i := 0; i < steps; i++ {
		c.Advance(0.001)
	}
	close(stop)
	wg.Wait()
}

// mutexClock is the pre-optimization implementation, kept in the test file
// so BenchmarkClock quantifies what the atomic version buys on the hot path
// (`benchstat` over `go test -bench Clock`).
type mutexClock struct {
	mu  sync.Mutex
	now float64
}

func (c *mutexClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *mutexClock) Advance(d float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += d
	}
	return c.now
}

func BenchmarkClock(b *testing.B) {
	b.Run("atomic/advance+now", func(b *testing.B) {
		var c Clock
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Advance(1e-9)
			_ = c.Now()
		}
	})
	b.Run("mutex/advance+now", func(b *testing.B) {
		var c mutexClock
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Advance(1e-9)
			_ = c.Now()
		}
	})
	// Contended read side: stats collectors and harness readers poll Now
	// while the owner advances. The atomic clock must not serialize them.
	b.Run("atomic/parallel-now", func(b *testing.B) {
		var c Clock
		c.Advance(1)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				_ = c.Now()
			}
		})
	})
	b.Run("mutex/parallel-now", func(b *testing.B) {
		var c mutexClock
		c.Advance(1)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				_ = c.Now()
			}
		})
	})
}
