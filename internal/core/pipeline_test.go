package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	bufpkg "repro/internal/buf"
	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// loadRecorder wraps a WaveStorage and records the iteration of every
// checkpoint recovery actually loaded, so tests can pin which wave a rollback
// restored.
type loadRecorder struct {
	inner *checkpoint.MemoryStorage
	mu    sync.Mutex
	iters map[int][]int // rank -> loaded checkpoint iterations
}

func newLoadRecorder() *loadRecorder {
	return &loadRecorder{inner: checkpoint.NewMemoryStorage(), iters: make(map[int][]int)}
}

func (l *loadRecorder) Save(cp *checkpoint.Checkpoint) error { return l.inner.Save(cp) }

func (l *loadRecorder) StageImage(rank int, image *bufpkg.Buffer) (func() error, func(), error) {
	return l.inner.StageImage(rank, image)
}

func (l *loadRecorder) Load(rank int) (*checkpoint.Checkpoint, bool, error) {
	cp, ok, err := l.inner.Load(rank)
	if ok && err == nil {
		l.mu.Lock()
		l.iters[rank] = append(l.iters[rank], cp.Iteration)
		l.mu.Unlock()
	}
	return cp, ok, err
}

func (l *loadRecorder) Ranks() ([]int, error) { return l.inner.Ranks() }

func (l *loadRecorder) loaded(rank int) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.iters[rank]...)
}

var _ checkpoint.WaveStorage = (*loadRecorder)(nil)

// TestEngineFaultMidDrainRecoversFromDurableWave is the deferred-GC proof:
// a fault strikes while two checkpoint waves of the failed cluster are still
// draining in the background. Recovery must cancel the undurable waves, roll
// back to the last *durable* wave (iteration 0 here), and replay the logged
// inter-cluster messages bit-identically — which is only possible if
// remote-log GC for the draining waves never ran.
func TestEngineFaultMidDrainRecoversFromDurableWave(t *testing.T) {
	const ranks, steps = 4, 8
	clusterOf := []int{0, 0, 1, 1}
	factory := app.NewRing(16, 3)

	recNative := trace.NewRecorder(ranks)
	wantVerify := runNative(t, factory, ranks, steps, recNative)

	storage := newLoadRecorder()
	release := make(chan struct{})
	cfg := Config{
		Policy:   NewSPBCProtocol(clusterOf),
		Interval: 2,
		Steps:    steps,
		Storage:  storage,
		Faults:   []Fault{{Rank: 2, Iteration: 5}},
		// Hold the commits of cluster 1's waves at iterations 2 and 4
		// (wave seqs 1 and 2) until recovery has restored the rolled-back
		// ranks: the fault at iteration 5 is then guaranteed to land while
		// both waves are draining. Wave 0 commits freely, so the cluster
		// has a durable wave to fall back to.
		Faultpoints: NewFaultRegistry().Register(PointMidCommitDrain,
			func(_ *Engine, info PointInfo) {
				if info.Cluster == 1 && (info.Wave == 1 || info.Wave == 2) {
					<-release
				}
			}),
	}

	rec := trace.NewRecorder(ranks)
	w, err := mpi.NewWorld(ranks, testCost(), mpi.WithRecorder(rec))
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	eng, err := NewEngine(w, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Metrics is safe to poll mid-run; the restore count reaching the
		// cluster size means cancellation already happened (it precedes the
		// loads), so the gated waves can be let through to be discarded.
		for eng.Metrics().RestoredCheckpoints < 2 {
			time.Sleep(100 * time.Microsecond)
		}
		close(release)
	}()
	if err := eng.Run(factory); err != nil {
		t.Fatalf("engine run: %v", err)
	}
	<-done

	if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("post-recovery verify = %v, want failure-free %v", got, wantVerify)
	}
	if err := trace.CheckFilteredChannelDeterminism(recNative, rec, appTraffic); err != nil {
		t.Fatalf("replay not bit-identical after mid-drain recovery: %v", err)
	}

	m := eng.Metrics()
	if m.CheckpointWavesCanceled != 2 {
		t.Fatalf("canceled waves = %d, want 2 (the two gated waves)", m.CheckpointWavesCanceled)
	}
	if want := []int{2, 3}; !reflect.DeepEqual(m.RolledBackRanks, want) {
		t.Fatalf("rolled-back ranks = %v, want %v", m.RolledBackRanks, want)
	}
	for _, r := range []int{2, 3} {
		if got := storage.loaded(r); !reflect.DeepEqual(got, []int{0}) {
			t.Fatalf("rank %d restored from iterations %v, want [0] (the last durable wave)", r, got)
		}
	}
	if m.ReplayedRecords == 0 {
		t.Fatal("rollback to iteration 0 must replay logged inter-cluster messages")
	}
	// Every wave is durable after Run: 4 of cluster 0 (iters 0,2,4,6) plus
	// 1 + 4 re-captured of cluster 1.
	if m.CheckpointWaves != 9 {
		t.Fatalf("durable waves = %d, want 9", m.CheckpointWaves)
	}
	if m.CheckpointSaves != 2*9 {
		t.Fatalf("published checkpoints = %d, want %d", m.CheckpointSaves, 2*9)
	}
	if m.CheckpointCaptureNs <= 0 || m.CheckpointCommitNs <= 0 {
		t.Fatalf("capture/commit timers did not move: %+v", m)
	}
}

// TestEngineFaultWaitsForFirstDurableWave covers the race of a fault against
// the very first commit: recovery must wait for the iteration-0 wave to
// become durable (never "no checkpoint to roll back to"), then recover from
// it.
func TestEngineFaultWaitsForFirstDurableWave(t *testing.T) {
	const ranks, steps = 4, 6
	clusterOf := []int{0, 0, 1, 1}
	factory := app.NewSolver(16)

	wantVerify := runNative(t, factory, ranks, steps, nil)
	storage := newLoadRecorder()
	eng := runEngine(t, factory, Config{
		Policy:   NewSPBCProtocol(clusterOf),
		Interval: 2,
		Steps:    steps,
		Storage:  storage,
		Faults:   []Fault{{Rank: 3, Iteration: 1}},
		// Delay every commit of cluster 1 so the fault at iteration 1 always
		// arrives before the iteration-0 wave is durable.
		Faultpoints: NewFaultRegistry().Register(PointMidCommitDrain,
			func(_ *Engine, info PointInfo) {
				if info.Cluster == 1 {
					time.Sleep(2 * time.Millisecond)
				}
			}),
	}, nil)

	if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("post-recovery verify = %v, want %v", got, wantVerify)
	}
	m := eng.Metrics()
	if want := []int{2, 3}; !reflect.DeepEqual(m.RolledBackRanks, want) {
		t.Fatalf("rolled-back ranks = %v, want %v", m.RolledBackRanks, want)
	}
	for _, r := range []int{2, 3} {
		if got := storage.loaded(r); !reflect.DeepEqual(got, []int{0}) {
			t.Fatalf("rank %d restored from iterations %v, want [0]", r, got)
		}
	}
}

// TestCheckpointCapturePreservesLogsAcrossGC pins the buffer-ownership rule
// of the capture: records retained by an in-flight capture survive a
// concurrent remote-log GC (Truncate) untouched, because the capture holds
// its own references.
func TestCheckpointCapturePreservesLogsAcrossGC(t *testing.T) {
	p0, p1, store := newBenchPair(t, NewSPBCProtocol([]int{0, 1}))
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	rbuf := make([]byte, 256)
	for i := 0; i < 8; i++ {
		if err := p0.Send(payload, 1, 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := p1.Recv(rbuf, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	recs, refs := store.SnapshotShared()
	if len(recs) != 8 {
		t.Fatalf("captured %d records, want 8", len(recs))
	}
	store.Truncate(1, 0, 8) // the destination's wave GCs everything
	for i, r := range recs {
		if r.Env.Seq != uint64(i+1) || len(r.Payload) != 256 || r.Payload[5] != 5 {
			t.Fatalf("captured record %d corrupted by GC: %+v", i, r.Env)
		}
	}
	for _, ref := range refs {
		ref.Release()
	}
}

// TestAllocGuardCheckpointCapture is the allocation-regression guard on the
// in-barrier capture path: snapshotting channels and the sender log must cost
// O(metadata) allocations whatever the state size and log population — no
// payload copies, no encoding — and far below one allocation per logged
// record. The committer pays the encode off the critical path.
func TestAllocGuardCheckpointCapture(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards are meaningless under the race detector")
	}
	for _, shape := range []struct{ state, records int }{
		{1 << 10, 0}, {16 << 10, 16}, {64 << 10, 64},
	} {
		t.Run(fmt.Sprintf("state=%d/logs=%d", shape.state, shape.records), func(t *testing.T) {
			p0, p1, store := newBenchPair(t, NewSPBCProtocol([]int{0, 1}))
			payload := make([]byte, 1024)
			rbuf := make([]byte, 1024)
			for i := 0; i < shape.records; i++ {
				if err := p0.Send(payload, 1, 0, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := p1.Recv(rbuf, 0, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			appState := make([]byte, shape.state)
			proto := NewSPBC(0, NewSPBCProtocol([]int{0, 1}), simnet.DefaultCostModel(), store)
			capture := func() {
				snap, snapRefs, err := p0.SnapshotChannelsShared()
				if err != nil {
					t.Fatal(err)
				}
				state, err := proto.EncodeState()
				if err != nil {
					t.Fatal(err)
				}
				logs, logRefs := store.SnapshotShared()
				cp := &checkpoint.Checkpoint{
					Rank: 0, AppState: appState, Channels: snap, Logs: ToCheckpointRecords(logs), Protocol: state,
				}
				cp.HoldShared(snapRefs)
				cp.HoldShared(logRefs)
				cp.ReleaseShared()
			}
			capture() // warm map/slice sizing paths
			perOp := testing.AllocsPerRun(50, capture)
			// 9–15 measured: snapshot maps and slices, the records slice, the
			// refs slices. The guard leaves 2x slack; a payload copy per record
			// (64) or a gob encode (hundreds) trips it immediately.
			if perOp > 30 {
				t.Errorf("checkpoint capture allocates %.1f objects per wave, want <= 30: "+
					"the zero-copy capture path regressed", perOp)
			}
		})
	}
}

// TestEngineCommitErrorDoesNotDeadlockRecovery pins the committer's error
// wakeup: a fault racing a first wave whose commit fails must surface an
// error (there is no durable wave to roll back to), never park the recovery
// leader on the condvar forever.
func TestEngineCommitErrorDoesNotDeadlockRecovery(t *testing.T) {
	const ranks, steps = 4, 4
	w, err := mpi.NewWorld(ranks, testCost())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	// Every commit fails: no wave ever becomes durable.
	failing, err := checkpoint.NewFaultStorage(checkpoint.NewMemoryStorage(),
		checkpoint.FaultRule{Op: checkpoint.OpCommit, Mode: checkpoint.ModeFail, Rank: -1})
	if err != nil {
		t.Fatalf("NewFaultStorage: %v", err)
	}
	eng, err := NewEngine(w, Config{
		Policy:   NewSPBCProtocol([]int{0, 0, 1, 1}),
		Interval: 2,
		Steps:    steps,
		Storage:  failing,
		Faults:   []Fault{{Rank: 3, Iteration: 1}},
		Faultpoints: NewFaultRegistry().Register(PointMidCommitDrain,
			func(_ *Engine, _ PointInfo) {
				time.Sleep(time.Millisecond) // widen the fault-vs-first-commit race
			}),
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(app.NewRing(8, 0)) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with unusable stable storage must fail")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked: recovery leader never woke from the committer condvar")
	}
}
