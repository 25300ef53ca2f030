package trace

import (
	"sync"
	"testing"
)

// Recording benchmarks. The per-rank sharding matters in the parallel case:
// every rank appends to its own buffer behind its own (uncontended) mutex,
// where the previous design serialized all ranks behind one global lock.

func benchEvent(rank int, seq uint64) Event {
	return Event{
		Kind:    EventSend,
		Rank:    rank,
		Channel: ChannelKey{Src: rank, Dst: (rank + 1) % 8, Comm: 0},
		Seq:     seq,
		Bytes:   64,
		Digest:  seq,
	}
}

func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(benchEvent(0, uint64(i+1)))
	}
}

func BenchmarkRecorderRecordParallel(b *testing.B) {
	// One goroutine per rank, as in a real execution: with per-rank buffers
	// the ranks do not contend.
	const ranks = 8
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		// Each worker impersonates one rank (workers cycle through ranks).
		r := rankCounter.next() % ranks
		rec := sharedRecorder
		seq := uint64(0)
		for pb.Next() {
			seq++
			rec.Record(benchEvent(r, seq))
		}
	})
}

var sharedRecorder = NewRecorder(8)

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) next() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n - 1
}

var rankCounter counter
