package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/buf"
	"repro/internal/checkpoint"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// countingStorage wraps a WaveStorage and counts Load calls per rank, so
// tests can assert which ranks actually restored a checkpoint.
type countingStorage struct {
	inner checkpoint.WaveStorage
	mu    sync.Mutex
	loads map[int]int
}

func newCountingStorage() *countingStorage {
	return &countingStorage{inner: checkpoint.NewMemoryStorage(), loads: make(map[int]int)}
}

func (c *countingStorage) Save(cp *checkpoint.Checkpoint) error { return c.inner.Save(cp) }

func (c *countingStorage) StageImage(rank int, image *buf.Buffer) (func() error, func(), error) {
	return c.inner.StageImage(rank, image)
}

func (c *countingStorage) Load(rank int) (*checkpoint.Checkpoint, bool, error) {
	c.mu.Lock()
	c.loads[rank]++
	c.mu.Unlock()
	return c.inner.Load(rank)
}

func (c *countingStorage) Ranks() ([]int, error) { return c.inner.Ranks() }

func (c *countingStorage) loadsOf(rank int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loads[rank]
}

var _ checkpoint.WaveStorage = (*countingStorage)(nil)

func testCost() simnet.CostModel {
	c := simnet.DefaultCostModel()
	c.RanksPerNode = 2
	return c
}

// runNative executes the factory's app on a bare world and returns the
// per-rank verification digests.
func runNative(t *testing.T, factory model.AppFactory, ranks, steps int, rec *trace.Recorder) []float64 {
	t.Helper()
	var opts []mpi.Option
	if rec != nil {
		opts = append(opts, mpi.WithRecorder(rec))
	}
	w, err := mpi.NewWorld(ranks, testCost(), opts...)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	verify := make([]float64, ranks)
	err = w.Run(func(p *mpi.Proc) error {
		a := factory()
		if err := a.Init(model.NewNativeProcess(p)); err != nil {
			return err
		}
		for i := 0; i < steps; i++ {
			if err := a.Step(i); err != nil {
				return err
			}
		}
		v, err := a.Verify()
		verify[p.Rank()] = v
		return err
	})
	if err != nil {
		t.Fatalf("native run: %v", err)
	}
	return verify
}

// runEngine executes the factory's app under the engine.
func runEngine(t *testing.T, factory model.AppFactory, cfg Config, rec *trace.Recorder) *Engine {
	t.Helper()
	var opts []mpi.Option
	if rec != nil {
		opts = append(opts, mpi.WithRecorder(rec))
	}
	seed, err := cfg.seed()
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	w, err := mpi.NewWorld(len(seed), testCost(), opts...)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	eng, err := NewEngine(w, cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := eng.Run(factory); err != nil {
		t.Fatalf("engine run: %v", err)
	}
	return eng
}

// appTraffic keeps only application point-to-point sends on the world
// communicator: protocol traffic (communicator construction, checkpoint
// barriers, collective fragments) uses the reserved tag range or cluster
// communicators.
func appTraffic(e trace.Event) bool {
	return e.Channel.Comm == 0 && e.Tag <= mpi.MaxAppTag
}

func TestEngineFailureFreeMatchesBaseline(t *testing.T) {
	const ranks, steps = 8, 12
	clusterOf := []int{0, 0, 0, 0, 1, 1, 1, 1}

	for _, tc := range []struct {
		name    string
		factory model.AppFactory
	}{
		{"ring", app.NewRing(16, 3)},
		{"solver", app.NewSolver(24)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recNative := trace.NewRecorder(ranks)
			wantVerify := runNative(t, tc.factory, ranks, steps, recNative)

			recSPBC := trace.NewRecorder(ranks)
			eng := runEngine(t, tc.factory, Config{
				Policy:   NewSPBCProtocol(clusterOf),
				Interval: 4,
				Steps:    steps,
				Storage:  checkpoint.NewMemoryStorage(),
			}, recSPBC)

			if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
				t.Fatalf("SPBC verify = %v, native verify = %v", got, wantVerify)
			}
			if err := trace.CheckFilteredChannelDeterminism(recNative, recSPBC, appTraffic); err != nil {
				t.Fatalf("application channel streams diverge between protocols: %v", err)
			}
			m := eng.Metrics()
			if m.CheckpointSaves != ranks*3 { // waves at iterations 0, 4, 8
				t.Fatalf("checkpoint saves = %d, want %d", m.CheckpointSaves, ranks*3)
			}
			if m.RecoveryEvents != 0 || len(m.RolledBackRanks) != 0 {
				t.Fatalf("failure-free run recorded recovery: %+v", m)
			}
		})
	}
}

func TestEngineLogsInterClusterTrafficOnly(t *testing.T) {
	const ranks, steps = 8, 9
	clusterOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
	eng := runEngine(t, app.NewRing(8, 3), Config{
		Policy:   NewSPBCProtocol(clusterOf),
		Interval: 3,
		Steps:    steps,
		Storage:  checkpoint.NewMemoryStorage(),
	}, nil)

	perCluster := eng.LoggedBytesByCluster()
	if len(perCluster) != 2 {
		t.Fatalf("clusters = %d, want 2", len(perCluster))
	}
	for c, b := range perCluster {
		if b == 0 {
			t.Fatalf("cluster %d logged no bytes; ring boundary traffic must be logged", c)
		}
	}
	// Interior ranks (1, 2 / 5, 6) only talk to cluster-internal neighbours
	// point-to-point; their logs contain only their collective fragments that
	// cross the boundary. Boundary ranks must log strictly more than zero.
	for _, r := range []int{3, 4, 7, 0} {
		if eng.Store(r).CumulativeBytes() == 0 {
			t.Fatalf("boundary rank %d logged nothing", r)
		}
	}
}

func TestEngineRecoveryRollsBackOnlyFailedCluster(t *testing.T) {
	const ranks, steps = 8, 12
	clusterOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
	factory := app.NewRing(16, 3) // allreduce at iterations 2, 5, 8, 11

	wantVerify := runNative(t, factory, ranks, steps, nil)

	storage := newCountingStorage()
	// Rank 6 (cluster 1) fails at the start of iteration 7: cluster 1 rolls
	// back to the wave taken at iteration 4 and re-executes 4..6, replaying
	// the iteration-5 allreduce fragments it had received from cluster 0.
	eng := runEngine(t, factory, Config{
		Policy:   NewSPBCProtocol(clusterOf),
		Interval: 4,
		Steps:    steps,
		Storage:  storage,
		Faults:   []Fault{{Rank: 6, Iteration: 7}},
	}, nil)

	if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("post-recovery verify = %v, want failure-free %v", got, wantVerify)
	}

	m := eng.Metrics()
	if want := []int{4, 5, 6, 7}; !reflect.DeepEqual(m.RolledBackRanks, want) {
		t.Fatalf("rolled-back ranks = %v, want %v (cluster-local rollback)", m.RolledBackRanks, want)
	}
	if m.RestoredCheckpoints != 4 {
		t.Fatalf("restored checkpoints = %d, want 4", m.RestoredCheckpoints)
	}
	if m.RecoveryEvents != 1 {
		t.Fatalf("recovery events = %d, want 1", m.RecoveryEvents)
	}
	if m.ReplayedRecords == 0 || m.ReplayedBytes == 0 {
		t.Fatalf("recovery must replay logged inter-cluster messages, metrics = %+v", m)
	}

	// The non-failed cluster never touches its checkpoints.
	for r := 0; r < 4; r++ {
		if n := storage.loadsOf(r); n != 0 {
			t.Fatalf("rank %d (non-failed cluster) loaded %d checkpoints, want 0", r, n)
		}
	}
	for r := 4; r < 8; r++ {
		if n := storage.loadsOf(r); n != 1 {
			t.Fatalf("rank %d (failed cluster) loaded %d checkpoints, want 1", r, n)
		}
	}

	// Re-execution suppressed the already-delivered inter-cluster sends.
	var suppressed uint64
	for r := 0; r < ranks; r++ {
		suppressed += eng.World().Proc(r).Stats.Snapshot().Suppressed
	}
	if suppressed == 0 {
		t.Fatalf("recovery re-execution suppressed no sends")
	}
}

func TestEngineRecoveryOfFailedRankRestoresLogFromCheckpoint(t *testing.T) {
	const ranks, steps = 4, 8
	clusterOf := []int{0, 0, 1, 1}
	factory := app.NewSolver(16)

	wantVerify := runNative(t, factory, ranks, steps, nil)
	eng := runEngine(t, factory, Config{
		Policy:   NewSPBCProtocol(clusterOf),
		Interval: 2,
		Steps:    steps,
		Storage:  checkpoint.NewMemoryStorage(),
		Faults:   []Fault{{Rank: 0, Iteration: 3}},
	}, nil)
	if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("post-recovery verify = %v, want %v", got, wantVerify)
	}
	m := eng.Metrics()
	if want := []int{0, 1}; !reflect.DeepEqual(m.RolledBackRanks, want) {
		t.Fatalf("rolled-back ranks = %v, want %v", m.RolledBackRanks, want)
	}
}

func TestEngineMultiClusterSimultaneousFailure(t *testing.T) {
	const ranks, steps = 8, 10
	clusterOf := []int{0, 0, 1, 1, 2, 2, 3, 3}
	factory := app.NewRing(8, 0)

	wantVerify := runNative(t, factory, ranks, steps, nil)
	eng := runEngine(t, factory, Config{
		Policy:   NewSPBCProtocol(clusterOf),
		Interval: 5,
		Steps:    steps,
		Storage:  checkpoint.NewMemoryStorage(),
		Faults:   []Fault{{Rank: 0, Iteration: 7}, {Rank: 5, Iteration: 7}},
	}, nil)
	if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("post-recovery verify = %v, want %v", got, wantVerify)
	}
	m := eng.Metrics()
	if want := []int{0, 1, 4, 5}; !reflect.DeepEqual(m.RolledBackRanks, want) {
		t.Fatalf("rolled-back ranks = %v, want %v (two independent clusters)", m.RolledBackRanks, want)
	}
	if m.RecoveryEvents != 1 {
		t.Fatalf("simultaneous failures recover in one event, got %d", m.RecoveryEvents)
	}
}

func TestEngineLogGarbageCollection(t *testing.T) {
	const ranks, steps = 4, 12
	clusterOf := []int{0, 0, 1, 1}
	eng := runEngine(t, app.NewRing(8, 2), Config{
		Policy:   NewSPBCProtocol(clusterOf),
		Interval: 3,
		Steps:    steps,
		Storage:  checkpoint.NewMemoryStorage(),
	}, nil)
	m := eng.Metrics()
	if m.TruncatedLogRecords == 0 {
		t.Fatalf("checkpoint waves must garbage-collect remote logs")
	}
	var retained, cumulative uint64
	for r := 0; r < ranks; r++ {
		retained += eng.Store(r).RetainedBytes()
		cumulative += eng.Store(r).CumulativeBytes()
	}
	if retained >= cumulative {
		t.Fatalf("GC must shrink retained volume below cumulative: retained=%d cumulative=%d", retained, cumulative)
	}
}

// plainStorage hides its store's StageImage: it implements
// checkpoint.Storage but not the two-phase checkpoint.WaveStorage the
// committer needs.
type plainStorage struct{ checkpoint.Storage }

func TestEngineConfigValidation(t *testing.T) {
	w, err := mpi.NewWorld(2, testCost())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	cases := []Config{
		{Policy: NewSPBCProtocol([]int{0}), Steps: 1},                                              // wrong assignment length
		{Policy: NewSPBCProtocol([]int{0, 0}), Steps: 0},                                           // no steps
		{Policy: NewSPBCProtocol([]int{0, 0}), Steps: 4, Faults: []Fault{{Rank: 0, Iteration: 1}}}, // faults without checkpointing
		{Policy: NewSPBCProtocol([]int{0, 0}), Steps: 4, Interval: 2},                              // checkpointing without storage
		{Policy: NewSPBCProtocol([]int{0, 0}), Steps: 4, Interval: 2, Storage: checkpoint.NewMemoryStorage(),
			Faults: []Fault{{Rank: 0, Iteration: 9}}}, // fault beyond the run
		{Policy: NewSPBCProtocol([]int{0, 0}), Steps: 4, Interval: 2, Storage: plainStorage{checkpoint.NewMemoryStorage()}}, // storage without StageImage
	}
	for i, cfg := range cases {
		if _, err := NewEngine(w, cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}
