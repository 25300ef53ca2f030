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
)

// adoptionTracker sits between the committer and a TieredStorage and keeps a
// reference of its own to every buffer that crosses either hand-off — frames
// through StageImage, full images through AdoptImage — so a test can ask
// afterwards who still holds them. It is a deltaSink itself (the probe stops
// at it) and forwards both capabilities to the tier.
type adoptionTracker struct {
	inner *checkpoint.TieredStorage

	mu        sync.Mutex
	staged    []*bufpkg.Buffer
	adopted   []*bufpkg.Buffer
	published map[[2]int]bool // (rank, wave) whose commit closure has run
	early     []string        // images offered before their wave published
}

func newAdoptionTracker(cfg checkpoint.TieredConfig) *adoptionTracker {
	return &adoptionTracker{inner: checkpoint.NewTieredStorage(cfg), published: make(map[[2]int]bool)}
}

func (a *adoptionTracker) Unwrap() checkpoint.WaveStorage { return a.inner }

func (a *adoptionTracker) DeltaPolicy() checkpoint.DeltaPolicy { return a.inner.DeltaPolicy() }

func (a *adoptionTracker) AdoptImage(rank, wave int, full *bufpkg.Buffer) {
	a.mu.Lock()
	if !a.published[[2]int{rank, wave}] {
		a.early = append(a.early, fmt.Sprintf("rank %d wave %d", rank, wave))
	}
	a.adopted = append(a.adopted, full.Retain())
	a.mu.Unlock()
	a.inner.AdoptImage(rank, wave, full)
}

func (a *adoptionTracker) StageImage(rank int, image *bufpkg.Buffer) (func() error, func(), error) {
	meta, err := checkpoint.DecodeMeta(image.Bytes())
	if err != nil {
		return nil, nil, err
	}
	a.mu.Lock()
	a.staged = append(a.staged, image.Retain())
	a.mu.Unlock()
	commit, abort, err := a.inner.StageImage(rank, image)
	if err != nil {
		return nil, nil, err
	}
	return func() error {
		a.mu.Lock()
		a.published[[2]int{rank, meta.Wave}] = true
		a.mu.Unlock()
		return commit()
	}, abort, nil
}

func (a *adoptionTracker) Save(cp *checkpoint.Checkpoint) error { return a.inner.Save(cp) }
func (a *adoptionTracker) Load(rank int) (*checkpoint.Checkpoint, bool, error) {
	return a.inner.Load(rank)
}
func (a *adoptionTracker) Ranks() ([]int, error) { return a.inner.Ranks() }

// heldByOthers counts the references somebody other than the tracker holds.
func heldByOthers(bufs []*bufpkg.Buffer) int {
	n := 0
	for _, b := range bufs {
		n += b.Refs() - 1
	}
	return n
}

// settle waits out the tier's demotions, then pushes every rank's hot entries
// out of the ring with a newer raw anchor, so that whatever reference is left
// on a tracked buffer afterwards is a leak.
func (a *adoptionTracker) settle(t *testing.T, ranks int) {
	t.Helper()
	a.inner.Quiesce()
	for r := 0; r < ranks; r++ {
		cp, ok, err := a.inner.Load(r)
		if err != nil || !ok {
			t.Fatalf("rank %d: load after the run: ok=%v err=%v", r, ok, err)
		}
		cp.Wave += 1000
		if err := a.inner.Save(cp); err != nil {
			t.Fatalf("rank %d: save: %v", r, err)
		}
	}
	a.inner.Quiesce()
	if n := heldByOthers(a.staged); n != 0 {
		t.Errorf("%d references to staged frames outlive their hot entries", n)
	}
	if n := heldByOthers(a.adopted); n != 0 {
		t.Errorf("%d references to full images outlive the base map and the hot ring", n)
	}
}

var _ deltaSink = (*adoptionTracker)(nil)

// TestCommitterSharesBaseImageWithTier runs the committer's delta pipeline
// over a TieredStorage with forced anchors, ring eviction and two waves
// canceled mid-drain, and pins the hand-off's ownership rule: a full image is
// offered only after its wave published, the tier shares it by reference
// while the entry is hot, and once entries leave the ring and the committer
// has drained nobody holds a frame or an image any more.
func TestCommitterSharesBaseImageWithTier(t *testing.T) {
	const ranks, steps = 4, 12
	factory := app.NewRing(512, 3)
	wantVerify := runNative(t, factory, ranks, steps, nil)

	storage := newAdoptionTracker(checkpoint.TieredConfig{Delta: checkpoint.DeltaPolicy{MaxChain: 3}})
	release := make(chan struct{})
	w, err := mpi.NewWorld(ranks, testCost())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	eng, err := NewEngine(w, Config{
		Policy:   NewSPBCProtocol([]int{0, 0, 1, 1}),
		Interval: 2,
		Steps:    steps,
		Storage:  storage,
		Faults:   []Fault{{Rank: 2, Iteration: 5}},
		// As TestEngineFaultMidDrainRecoversFromDurableWave: cluster 1's waves
		// at iterations 2 and 4 are held until recovery has canceled them.
		Faultpoints: NewFaultRegistry().Register(PointMidCommitDrain,
			func(_ *Engine, info PointInfo) {
				if info.Cluster == 1 && (info.Wave == 1 || info.Wave == 2) {
					<-release
				}
			}),
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
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
		t.Fatalf("verify = %v, want failure-free %v", got, wantVerify)
	}

	m := eng.Metrics()
	if m.CheckpointWavesCanceled != 2 {
		t.Fatalf("canceled waves = %d, want 2", m.CheckpointWavesCanceled)
	}
	if m.DeltaImages == 0 || m.FullImages < 2*ranks {
		t.Fatalf("delta images %d, full images %d: want deltas and at least two anchors per rank (MaxChain 3)", m.DeltaImages, m.FullImages)
	}
	if len(storage.early) != 0 {
		t.Errorf("images offered before their wave published: %v", storage.early)
	}
	// Every published member is offered, no member of a canceled wave is.
	if len(storage.adopted) != m.CheckpointSaves {
		t.Errorf("%d images offered, want one per published checkpoint (%d)", len(storage.adopted), m.CheckpointSaves)
	}
	storage.inner.Quiesce()
	if shared := heldByOthers(storage.adopted); shared == 0 || shared > ranks*2 {
		t.Errorf("hot ring shares %d full images after the run, want between 1 and %d (2 hot waves per rank)", shared, ranks*2)
	}
	storage.settle(t, ranks)
}

// TestCommitterStageErrorReleasesStagedAndAdopted: a stage that fails
// mid-run aborts the wave's other members and drops its plans; the error
// fails the run and no buffer stays referenced.
func TestCommitterStageErrorReleasesStagedAndAdopted(t *testing.T) {
	const ranks, steps = 4, 8
	tracker := newAdoptionTracker(checkpoint.TieredConfig{})
	storage, err := checkpoint.NewFaultStorage(tracker,
		checkpoint.FaultRule{Op: checkpoint.OpStage, Mode: checkpoint.ModeFail, Rank: 1, After: 2, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(ranks, testCost())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	eng, err := NewEngine(w, Config{Policy: NewSPBCProtocol([]int{0, 0, 1, 1}), Interval: 2, Steps: steps, Storage: storage})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := eng.Run(app.NewRing(512, 3)); err == nil {
		t.Fatal("run with a failed stage must fail")
	}
	if storage.TotalInjections() != 1 {
		t.Fatalf("stage fault injected %d times, want 1", storage.TotalInjections())
	}
	if len(tracker.adopted) == 0 {
		t.Fatal("no wave published before the stage fault")
	}
	tracker.settle(t, ranks)
}
