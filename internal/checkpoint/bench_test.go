package checkpoint

import (
	"testing"

	"repro/internal/logstore"
	"repro/internal/mpi"
)

// Checkpoint encode/decode runs once per rank per wave in the background
// committer (binary codec) and once per restart read (Load decodes the shared
// image). Names are benchstat-friendly.

func benchCheckpoint(stateBytes, logRecords int) *Checkpoint {
	cp := &Checkpoint{
		Rank:      1,
		Cluster:   0,
		Iteration: 8,
		Epoch:     2,
		Time:      1.25,
		AppState:  make([]byte, stateBytes),
		Channels: &mpi.ChannelSnapshot{
			Out: map[mpi.ChanKey]uint64{{Peer: 0, Comm: 0}: 42, {Peer: 2, Comm: 0}: 17},
			In: map[mpi.ChanKey]mpi.InChannelState{
				{Peer: 0, Comm: 0}: {MaxSeqSeen: 42, Delivered: 42},
				{Peer: 2, Comm: 0}: {MaxSeqSeen: 17, Delivered: 16},
			},
			Queued: []mpi.QueuedMessage{
				{Env: mpi.Envelope{Source: 2, Dest: 1, Seq: 17, Bytes: 64}, Payload: make([]byte, 64)},
			},
			CollSeq: map[int]uint64{0: 9},
			Clock:   1.25,
		},
		Protocol: make([]byte, 64),
	}
	for i := 0; i < logRecords; i++ {
		cp.Logs = append(cp.Logs, logstore.Record{
			Env:     mpi.Envelope{Source: 1, Dest: 0, Seq: uint64(i + 1), Bytes: 256},
			Payload: make([]byte, 256),
		})
	}
	return cp
}

func BenchmarkCheckpointEncode(b *testing.B) {
	for _, tc := range []struct {
		name              string
		state, logRecords int
	}{
		{"state=1KiB/logs=0", 1 << 10, 0},
		{"state=64KiB/logs=64", 64 << 10, 64},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cp := benchCheckpoint(tc.state, tc.logRecords)
			b.SetBytes(int64(cp.Size()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(cp); err != nil {
					b.Fatalf("encode: %v", err)
				}
			}
		})
	}
}

func BenchmarkCheckpointDecode(b *testing.B) {
	for _, tc := range []struct {
		name              string
		state, logRecords int
	}{
		{"state=1KiB/logs=0", 1 << 10, 0},
		{"state=64KiB/logs=64", 64 << 10, 64},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cp := benchCheckpoint(tc.state, tc.logRecords)
			raw, err := Encode(cp)
			if err != nil {
				b.Fatalf("encode: %v", err)
			}
			b.SetBytes(int64(cp.Size()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(raw); err != nil {
					b.Fatalf("decode: %v", err)
				}
			}
		})
	}
}

// BenchmarkCheckpointEncodeBuffer measures the committer's actual encode
// path: image into a pooled buffer, released after use.
func BenchmarkCheckpointEncodeBuffer(b *testing.B) {
	cp := benchCheckpoint(64<<10, 64)
	b.SetBytes(int64(cp.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		image, err := EncodeBuffer(cp)
		if err != nil {
			b.Fatalf("encode: %v", err)
		}
		image.Release()
	}
}
