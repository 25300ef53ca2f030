package logstore

import (
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/mpi"
)

// The log-append path runs on every logged send (the protocol's only
// failure-free overhead) and the replay path on every recovery, so both are
// hot in the bench sweep. Names are benchstat-friendly: compare runs with
// `benchstat old.txt new.txt`.

func benchEnv(seq uint64, size int) mpi.Envelope {
	return mpi.Envelope{Source: 0, Dest: 1, CommID: 0, Seq: seq, Bytes: size}
}

// benchAppend logs payload as the send path does: one pooled copy, retained
// by the store, the sender's reference dropped.
func benchAppend(s *Store, seq uint64, payload []byte) {
	pb := buf.Copy(payload)
	s.AppendShared(benchEnv(seq, len(payload)), pb, 0)
	pb.Release()
}

func BenchmarkStoreAppend(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			payload := make([]byte, size)
			s := New()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchAppend(s, uint64(i+1), payload)
			}
		})
	}
}

func BenchmarkStoreAppendDuplicate(b *testing.B) {
	// Re-logging during recovery re-execution hits the duplicate path.
	pb := buf.Copy(make([]byte, 1024))
	defer pb.Release()
	s := New()
	s.AppendShared(benchEnv(1, pb.Len()), pb, 0)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AppendShared(benchEnv(1, pb.Len()), pb, 0)
	}
}

func BenchmarkStoreReplayRange(b *testing.B) {
	for _, records := range []int{64, 4096} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			payload := make([]byte, 256)
			s := New()
			for i := 0; i < records; i++ {
				benchAppend(s, uint64(i+1), payload)
			}
			seen := uint64(records / 2) // replay the post-checkpoint tail
			n := 0
			consume := func(_ mpi.Envelope, p *buf.Buffer) error {
				n++
				p.Release()
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n = 0
				if err := s.Replay(1, 0, seen, uint64(records), consume); err != nil || n == 0 {
					b.Fatalf("empty replay range (err %v)", err)
				}
			}
		})
	}
}

func BenchmarkStoreTruncate(b *testing.B) {
	// Checkpoint-wave garbage collection: drop half, re-append, repeat.
	payload := make([]byte, 256)
	const records = 1024
	s := New()
	for i := 0; i < records; i++ {
		benchAppend(s, uint64(i+1), payload)
	}
	next := uint64(records)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dropped := s.Truncate(1, 0, next-records/2)
		for j := 0; j < dropped; j++ {
			next++
			benchAppend(s, next, payload)
		}
	}
}
