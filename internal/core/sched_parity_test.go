package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/app"
	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// runSPBCOnProcs executes one SPBC run with GOMAXPROCS set to procs and
// returns the per-rank verify digests plus the recorded trace. The wake
// scheduler sizes its shards from GOMAXPROCS, so procs changes both the
// shard count and how the host interleaves the rank goroutines; with faults,
// recovery, replay and log GC all run under that interleaving too.
func runSPBCOnProcs(t *testing.T, procs, ranks int, faults []Fault) ([]float64, *trace.Recorder) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	clusterOf := make([]int, ranks)
	for r := range clusterOf {
		clusterOf[r] = r / 8
	}
	rec := trace.NewRecorder(ranks)
	w, err := mpi.NewWorld(ranks, testCost(), mpi.WithRecorder(rec))
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	eng, err := NewEngine(w, Config{
		Policy:   NewSPBCProtocol(clusterOf),
		Interval: 3,
		Steps:    10,
		Storage:  checkpoint.NewMemoryStorage(),
		Faults:   faults,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := eng.Run(app.NewRing(16, 3)); err != nil {
		t.Fatalf("engine run (GOMAXPROCS=%d): %v", procs, err)
	}
	return eng.VerifyValues(), rec
}

// TestSchedulerParityAcrossGOMAXPROCS pins that the wake scheduler is
// invisible to the simulation: a failure-free SPBC run on one P (4 shards,
// every rank goroutine time-sliced on one thread) and on four Ps (16 shards,
// ranks running in parallel) must produce bit-identical verify digests and a
// bit-identical trace (same per-channel send order, sequence numbers and
// payload digests, protocol traffic included). Matching order is decided in
// virtual time under the per-proc lock, so any divergence here means host
// scheduling leaked into simulated behavior.
func TestSchedulerParityAcrossGOMAXPROCS(t *testing.T) {
	const ranks = 64
	oneVerify, oneRec := runSPBCOnProcs(t, 1, ranks, nil)
	fourVerify, fourRec := runSPBCOnProcs(t, 4, ranks, nil)
	if !reflect.DeepEqual(fourVerify, oneVerify) {
		t.Fatalf("verify digests diverged between GOMAXPROCS 1 and 4:\n%v\nvs\n%v", oneVerify, fourVerify)
	}
	if err := trace.CheckChannelDeterminism(oneRec, fourRec); err != nil {
		t.Fatalf("channel trace diverged between GOMAXPROCS 1 and 4: %v", err)
	}
	if err := trace.CheckSendDeterminism(oneRec, fourRec); err != nil {
		t.Fatalf("send trace diverged between GOMAXPROCS 1 and 4: %v", err)
	}
}

// TestSchedulerParityAcrossGOMAXPROCSUnderFaults is the same cross-check
// with crashes and recovery. Which wave a recovery restores is whatever was
// durable at wall-clock fault time, so the number of re-executed sends a raw
// trace records is a property of the host, not of the wake path. The
// comparison is therefore on what must not move: the verify digests and the
// application's per-channel message streams.
func TestSchedulerParityAcrossGOMAXPROCSUnderFaults(t *testing.T) {
	const ranks = 64
	faults := []Fault{{Rank: 3, Iteration: 5}, {Rank: ranks - 1, Iteration: 8}}
	oneVerify, oneRec := runSPBCOnProcs(t, 1, ranks, faults)
	fourVerify, fourRec := runSPBCOnProcs(t, 4, ranks, faults)
	if !reflect.DeepEqual(fourVerify, oneVerify) {
		t.Fatalf("verify digests diverged between GOMAXPROCS 1 and 4:\n%v\nvs\n%v", oneVerify, fourVerify)
	}
	if err := trace.CheckFilteredChannelDeterminism(oneRec, fourRec, appTraffic); err != nil {
		t.Fatalf("application channel streams diverged between GOMAXPROCS 1 and 4: %v", err)
	}
}
