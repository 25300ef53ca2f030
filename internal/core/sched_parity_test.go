package core

import (
	"reflect"
	"testing"

	"repro/internal/app"
	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// runSPBCWithShards executes one SPBC run — faults included, so recovery,
// replay and log GC all happen under the wake machinery being compared —
// and returns the per-rank verify digests plus the recorded trace.
func runSPBCWithShards(t *testing.T, shards, ranks int) ([]float64, *trace.Recorder) {
	t.Helper()
	clusterOf := make([]int, ranks)
	for r := range clusterOf {
		clusterOf[r] = r / 8
	}
	rec := trace.NewRecorder(ranks)
	w, err := mpi.NewWorld(ranks, testCost(), mpi.WithRecorder(rec), mpi.WithShards(shards))
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	eng, err := NewEngine(w, Config{
		Policy:   NewSPBCProtocol(clusterOf),
		Interval: 3,
		Steps:    10,
		Storage:  checkpoint.NewMemoryStorage(),
		Faults:   []Fault{{Rank: 3, Iteration: 5}, {Rank: ranks - 1, Iteration: 8}},
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := eng.Run(app.NewRing(16, 3)); err != nil {
		t.Fatalf("engine run (shards=%d): %v", shards, err)
	}
	return eng.VerifyValues(), rec
}

// TestSchedulerParityWithLegacyWakes pins that the shard scheduler is
// invisible to the simulation: an SPBC run with crashes and recovery under
// the default sharded wake path must produce bit-identical verify digests
// and a bit-identical trace (same per-channel send order, sequence numbers
// and payload digests) as the legacy goroutine-per-rank direct-wake path.
// Matching order is decided in virtual time under the per-proc lock, so any
// divergence here means the scheduler leaked into simulated behavior.
func TestSchedulerParityWithLegacyWakes(t *testing.T) {
	const ranks = 64
	legacyVerify, legacyRec := runSPBCWithShards(t, -1, ranks)
	for _, shards := range []int{0, 1, 5} {
		shardVerify, shardRec := runSPBCWithShards(t, shards, ranks)
		if !reflect.DeepEqual(shardVerify, legacyVerify) {
			t.Fatalf("shards=%d: verify digests diverged from the legacy path:\n%v\nvs\n%v",
				shards, shardVerify, legacyVerify)
		}
		if err := trace.CheckChannelDeterminism(legacyRec, shardRec); err != nil {
			t.Fatalf("shards=%d: channel trace diverged from the legacy path: %v", shards, err)
		}
		if err := trace.CheckSendDeterminism(legacyRec, shardRec); err != nil {
			t.Fatalf("shards=%d: send trace diverged from the legacy path: %v", shards, err)
		}
	}
}
