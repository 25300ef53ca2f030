package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/checkpoint"
	"repro/internal/clustering"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// contiguous is the static halo-optimal partition of 8 ranks into 2 clusters.
func contiguous8() []int { return []int{0, 0, 0, 0, 1, 1, 1, 1} }

func adaptiveConfig(seed []int, interval, steps int, faults ...Fault) Config {
	return Config{
		Adaptive: &AdaptiveConfig{Seed: seed, RanksPerNode: 2},
		Interval: interval,
		Steps:    steps,
		Storage:  checkpoint.NewMemoryStorage(),
		Faults:   faults,
	}
}

// TestAdaptiveEngineStableWorkloadKeepsSeed: on a stable kernel the window
// profile never justifies a migration, so the run ends with the seed epoch —
// adaptive SPBC degenerates to static SPBC, bit for bit.
func TestAdaptiveEngineStableWorkloadKeepsSeed(t *testing.T) {
	const ranks, steps = 8, 12
	factory := app.NewRing(16, 3)
	wantVerify := runNative(t, factory, ranks, steps, nil)

	adaptiveEng := runEngine(t, factory, adaptiveConfig(contiguous8(), 4, steps), nil)
	staticEng := runEngine(t, factory, Config{
		Policy:   NewSPBCProtocol(contiguous8()),
		Interval: 4,
		Steps:    steps,
		Storage:  checkpoint.NewMemoryStorage(),
	}, nil)

	if got := adaptiveEng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("adaptive verify = %v, want native %v", got, wantVerify)
	}
	m := adaptiveEng.Metrics()
	if m.Epochs != 1 || m.EpochSwitches != 0 {
		t.Fatalf("stable workload must stay in the seed epoch: %d epochs, %d switches", m.Epochs, m.EpochSwitches)
	}
	var adaptiveLogged, staticLogged uint64
	for r := 0; r < ranks; r++ {
		adaptiveLogged += adaptiveEng.Store(r).CumulativeBytes()
		staticLogged += staticEng.Store(r).CumulativeBytes()
	}
	if adaptiveLogged != staticLogged {
		t.Fatalf("zero-switch adaptive run must log exactly the static volume: %d vs %d", adaptiveLogged, staticLogged)
	}
	hist := adaptiveEng.EpochHistory()
	if len(hist) != 1 || !reflect.DeepEqual(hist[0].ClusterOf, contiguous8()) {
		t.Fatalf("epoch history = %+v, want the single seed epoch", hist)
	}
	if hist[0].LoggedBytes == 0 || hist[0].SentBytes <= hist[0].LoggedBytes {
		t.Fatalf("epoch accounting not filled: %+v", hist[0])
	}
}

// TestAdaptiveEngineRepartitionsOnPhaseShift: when the workload flips to the
// rotation regime, the live window profile justifies a new partition; the
// engine opens a new epoch at the next wave boundary and ends up logging
// strictly less than the same run under the frozen seed partition.
func TestAdaptiveEngineRepartitionsOnPhaseShift(t *testing.T) {
	const ranks, steps = 8, 12
	factory := app.NewPhaseShift(32, 2)
	wantVerify := runNative(t, factory, ranks, steps, nil)

	adaptiveEng := runEngine(t, factory, adaptiveConfig(contiguous8(), 2, steps), nil)
	staticEng := runEngine(t, factory, Config{
		Policy:   NewSPBCProtocol(contiguous8()),
		Interval: 2,
		Steps:    steps,
		Storage:  checkpoint.NewMemoryStorage(),
	}, nil)

	if got := adaptiveEng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("adaptive verify = %v, want native %v", got, wantVerify)
	}
	m := adaptiveEng.Metrics()
	if m.EpochSwitches < 1 {
		t.Fatalf("phase-shifting workload must repartition at least once, got %d switches", m.EpochSwitches)
	}
	var adaptiveLogged, staticLogged uint64
	for r := 0; r < ranks; r++ {
		adaptiveLogged += adaptiveEng.Store(r).CumulativeBytes()
		staticLogged += staticEng.Store(r).CumulativeBytes()
	}
	if adaptiveLogged >= staticLogged {
		t.Fatalf("adaptive must log strictly less than the frozen seed partition: %d vs %d", adaptiveLogged, staticLogged)
	}
	hist := adaptiveEng.EpochHistory()
	if len(hist) != m.Epochs {
		t.Fatalf("history has %d entries for %d epochs", len(hist), m.Epochs)
	}
	for i, h := range hist {
		if h.Epoch != i {
			t.Fatalf("history epoch ids not dense: %+v", hist)
		}
		if i > 0 && h.FromIteration%2 != 0 {
			t.Fatalf("epoch %d opened off a wave boundary (iteration %d)", i, h.FromIteration)
		}
		if err := clustering.Validate(clustering.NewProfile(ranks, 2), h.ClusterOf, ranks, false); err != nil {
			t.Fatalf("epoch %d partition invalid: %v", i, err)
		}
	}
}

// TestAdaptiveEngineFaultAfterEpochSwitch is the recovery-line proof: a fault
// lands in the first wave after a repartition. The rolled-back set must be a
// cluster of the *new* partition, replay must be bit-identical against the
// native execution, and the restored checkpoint must carry the new epoch.
func TestAdaptiveEngineFaultAfterEpochSwitch(t *testing.T) {
	const ranks, steps = 8, 8
	factory := app.NewPhaseShift(32, 2)

	recNative := trace.NewRecorder(ranks)
	wantVerify := runNative(t, factory, ranks, steps, recNative)

	// Phases: iterations 0-1 halo, 2-3 shift, 4-5 halo, 6-7 shift. The window
	// at boundary 4 holds the shift traffic, so epoch 1 opens with the wave
	// at iteration 4; the fault at iteration 5 strikes inside that epoch's
	// first interval.
	rec := trace.NewRecorder(ranks)
	eng := runEngine(t, factory, adaptiveConfig(contiguous8(), 2, steps, Fault{Rank: 0, Iteration: 5}), rec)

	if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("post-recovery verify = %v, want native %v", got, wantVerify)
	}
	if err := trace.CheckFilteredChannelDeterminism(recNative, rec, appTraffic); err != nil {
		t.Fatalf("replay not bit-identical across the epoch switch: %v", err)
	}
	m := eng.Metrics()
	if m.EpochSwitches < 1 {
		t.Fatalf("expected a repartition before the fault, got %d switches", m.EpochSwitches)
	}
	hist := eng.EpochHistory()
	if hist[1].FromIteration != 4 {
		t.Fatalf("epoch 1 opened at iteration %d, want 4", hist[1].FromIteration)
	}
	// The rolled-back set is rank 0's cluster under the *new* partition —
	// under the seed partition it would have been {0,1,2,3}.
	newPart := hist[len(hist)-1].ClusterOf
	var want []int
	for r, c := range newPart {
		if c == newPart[0] {
			want = append(want, r)
		}
	}
	if reflect.DeepEqual(want, []int{0, 1, 2, 3}) {
		t.Fatalf("epoch-1 cluster of rank 0 equals the seed cluster; the scenario lost its point")
	}
	if !reflect.DeepEqual(m.RolledBackRanks, want) {
		t.Fatalf("rolled back %v, want the new-epoch cluster %v", m.RolledBackRanks, want)
	}
	if m.ReplayedRecords == 0 {
		t.Fatalf("recovery after the switch must replay logged messages")
	}

	// The live profile skips recovery re-execution, so the faulty run's
	// epoch trajectory is identical to its failure-free twin's — re-sent
	// traffic must not be double-counted into later decision windows.
	twin := runEngine(t, factory, adaptiveConfig(contiguous8(), 2, steps), nil)
	twinHist := twin.EpochHistory()
	if len(twinHist) != len(hist) {
		t.Fatalf("fault run walked %d epochs, failure-free twin %d", len(hist), len(twinHist))
	}
	for i := range hist {
		if hist[i].FromIteration != twinHist[i].FromIteration ||
			!reflect.DeepEqual(hist[i].ClusterOf, twinHist[i].ClusterOf) {
			t.Fatalf("epoch %d diverged from the failure-free twin:\nfault: %+v\ntwin:  %+v",
				i, hist[i], twinHist[i])
		}
	}
}

// snapshotFailer wraps an app and fails Snapshot on one rank at the n-th
// checkpoint, after learning its rank from the first send-capable call.
type snapshotFailer struct {
	model.App
	rank      *int // shared slot written by the init hook below
	failRank  int
	failAtNth int
	snapshots int
}

func (f *snapshotFailer) Snapshot() ([]byte, error) {
	f.snapshots++
	if *f.rank == f.failRank && f.snapshots == f.failAtNth {
		return nil, fmt.Errorf("injected snapshot failure")
	}
	return f.App.Snapshot()
}

type rankProbe struct {
	model.App
	rank *int
}

func (r *rankProbe) Init(p model.Process) error {
	*r.rank = p.Rank()
	return r.App.Init(p)
}

// TestAdaptiveRankErrorAtSwitchDoesNotDeadlock pins the committer abort
// path: a rank that errors between the epoch decision and its wave submit
// leaves the epoch-opening wave partial forever; its cluster-mates are
// parked in the post-switch flush and must be released with the run's error
// instead of hanging Engine.Run.
func TestAdaptiveRankErrorAtSwitchDoesNotDeadlock(t *testing.T) {
	const ranks, steps = 8, 8
	factory := func() model.App {
		rank := -1
		return &rankProbe{
			App:  &snapshotFailer{App: app.NewPhaseShift(32, 2)(), rank: &rank, failRank: 0, failAtNth: 3},
			rank: &rank,
		}
	}

	w, err := mpi.NewWorld(ranks, testCost())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	// Boundaries at 0, 2, 4, ...: the third snapshot is the wave at
	// iteration 4, which opens epoch 1 (the window holds the first rotation
	// phase) — rank 0 fails mid-capture of the epoch-opening wave.
	eng, err := NewEngine(w, adaptiveConfig(contiguous8(), 2, steps))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(factory) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with a failing snapshot must surface an error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked: cluster-mates never woke from the epoch-switch flush")
	}
}

func TestAdaptiveConfigValidation(t *testing.T) {
	cases := []Config{
		// Adaptive without a checkpoint interval: epochs need wave boundaries.
		{Adaptive: &AdaptiveConfig{Seed: []int{0, 1}}, Steps: 4, Storage: checkpoint.NewMemoryStorage()},
		// Adaptive without a seed partition.
		{Adaptive: &AdaptiveConfig{}, Interval: 2, Steps: 4, Storage: checkpoint.NewMemoryStorage()},
		// Adaptive combined with a static policy.
		{Adaptive: &AdaptiveConfig{Seed: []int{0, 0}}, Policy: NewSPBCProtocol([]int{0, 0}), Interval: 2, Steps: 4, Storage: checkpoint.NewMemoryStorage()},
	}
	for i, cfg := range cases {
		if _, _, err := cfg.resolve(2); err == nil {
			t.Fatalf("case %d: invalid adaptive config accepted: %+v", i, cfg)
		}
	}
}
