package core

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/buf"
	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// TestEngineRejectsDuplicateFault pins the fault-plan validation: two faults
// on the same rank at the same iteration boundary have no defined order (a
// rank fails at most once per boundary), so the plan is rejected up front
// with an error naming the offender.
func TestEngineRejectsDuplicateFault(t *testing.T) {
	w, err := mpi.NewWorld(4, testCost())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	_, err = NewEngine(w, Config{
		Policy:   NewSPBCProtocol([]int{0, 0, 1, 1}),
		Interval: 2,
		Steps:    8,
		Storage:  checkpoint.NewMemoryStorage(),
		Faults:   []Fault{{Rank: 2, Iteration: 3}, {Rank: 3, Iteration: 3}, {Rank: 2, Iteration: 3}},
	})
	if err == nil {
		t.Fatal("duplicate (rank, iteration) fault plan must be rejected")
	}
	if !strings.Contains(err.Error(), "rank 2 twice at iteration 3") {
		t.Fatalf("error does not name the duplicate: %v", err)
	}
}

// Two faults at the same boundary on *different* ranks stay legal (correlated
// failure), including across clusters.
func TestEngineAllowsCorrelatedFaultsAtOneBoundary(t *testing.T) {
	const ranks, steps = 4, 8
	factory := app.NewRing(16, 3)
	wantVerify := runNative(t, factory, ranks, steps, nil)
	eng := runEngine(t, factory, Config{
		Policy:   NewSPBCProtocol([]int{0, 0, 1, 1}),
		Interval: 2,
		Steps:    steps,
		Storage:  checkpoint.NewMemoryStorage(),
		Faults:   []Fault{{Rank: 0, Iteration: 3}, {Rank: 3, Iteration: 3}},
	}, nil)
	if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("verify = %v, want %v", got, wantVerify)
	}
	m := eng.Metrics()
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(m.RolledBackRanks, want) {
		t.Fatalf("rolled-back ranks = %v, want %v (both clusters failed)", m.RolledBackRanks, want)
	}
	if m.RecoveryEvents != 1 {
		t.Fatalf("recovery events = %d, want 1 (one correlated event)", m.RecoveryEvents)
	}
}

// stageErrCapture passes a WaveStorage through and keeps the first error
// StageImage returns.
type stageErrCapture struct {
	checkpoint.WaveStorage
	mu    sync.Mutex
	first error
}

func (s *stageErrCapture) StageImage(rank int, image *buf.Buffer) (func() error, func(), error) {
	commit, abort, err := s.WaveStorage.StageImage(rank, image)
	if err != nil {
		s.mu.Lock()
		if s.first == nil {
			s.first = err
		}
		s.mu.Unlock()
	}
	return commit, abort, err
}

// TestFirstWaveStageErrorSurfacesAtRecovery: when a cluster's first wave
// fails to stage and a fault hits the cluster before the next boundary,
// recovery has nothing to load. The run must fail with the storage error,
// not with a bare "no checkpoint to roll back to".
func TestFirstWaveStageErrorSurfacesAtRecovery(t *testing.T) {
	faulty, err := checkpoint.NewFaultStorage(checkpoint.NewMemoryStorage(),
		checkpoint.FaultRule{Op: checkpoint.OpStage, Mode: checkpoint.ModeFail, Rank: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	storage := &stageErrCapture{WaveStorage: faulty}
	w, err := mpi.NewWorld(4, testCost())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	eng, err := NewEngine(w, Config{
		Policy:   NewSPBCProtocol([]int{0, 0, 1, 1}),
		Interval: 4,
		Steps:    8,
		Storage:  storage,
		Faults:   []Fault{{Rank: 1, Iteration: 2}},
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	runErr := eng.Run(app.NewRing(16, 3))
	storage.mu.Lock()
	stageErr := storage.first
	storage.mu.Unlock()
	if stageErr == nil {
		t.Fatal("the stage fault never fired")
	}
	if !errors.Is(runErr, stageErr) {
		t.Fatalf("run error %v does not wrap the stage failure %v", runErr, stageErr)
	}
}

// TestArmFaultOutsideHookRejected: ArmFault is a scheduling window, not a
// general API — outside a recovery-start hook there is no arming event and
// the call must fail instead of corrupting the schedule.
func TestArmFaultOutsideHookRejected(t *testing.T) {
	w, err := mpi.NewWorld(4, testCost())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	eng, err := NewEngine(w, Config{
		Policy:   NewSPBCProtocol([]int{0, 0, 1, 1}),
		Interval: 2,
		Steps:    8,
		Storage:  checkpoint.NewMemoryStorage(),
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := eng.ArmFault(Fault{Rank: 1, Iteration: 2}); err == nil {
		t.Fatal("ArmFault outside a recovery-start hook must fail")
	} else if !strings.Contains(err.Error(), string(PointRecoveryStart)) {
		t.Fatalf("error does not name the required hook: %v", err)
	}
}

// TestArmFaultRejectsIterationPastFailurePoint: a chained fault after the
// arming event's boundary would deadlock (recovering ranks rejoin live
// traffic while bystanders are parked), so the window is [0, arming iter].
func TestArmFaultRejectsIterationPastFailurePoint(t *testing.T) {
	const ranks, steps = 4, 8
	factory := app.NewRing(16, 3)
	var armErr error
	var once sync.Once
	reg := NewFaultRegistry().Register(PointRecoveryStart, func(e *Engine, info PointInfo) {
		once.Do(func() { armErr = e.ArmFault(Fault{Rank: 3, Iteration: info.Iteration + 1}) })
	})
	runEngine(t, factory, Config{
		Policy:      NewSPBCProtocol([]int{0, 0, 1, 1}),
		Interval:    2,
		Steps:       steps,
		Storage:     checkpoint.NewMemoryStorage(),
		Faults:      []Fault{{Rank: 2, Iteration: 5}},
		Faultpoints: reg,
	}, nil)
	if armErr == nil {
		t.Fatal("chained fault past the arming boundary must be rejected")
	}
	if !strings.Contains(armErr.Error(), "outside the arming event's window") {
		t.Fatalf("unexpected error: %v", armErr)
	}
}

// TestArmFaultRejectsCrossGroupBelowBoundary: below the arming boundary a
// chained fault may only target the recovering group itself. A bystander
// group's rollback would need replay records that the memory-lost recovering
// ranks have not re-logged yet, and their later re-sends are suppressed — the
// chained rollback would starve.
func TestArmFaultRejectsCrossGroupBelowBoundary(t *testing.T) {
	const ranks, steps = 4, 8
	factory := app.NewRing(16, 3)
	var armErr error
	var once sync.Once
	reg := NewFaultRegistry().Register(PointRecoveryStart, func(e *Engine, info PointInfo) {
		once.Do(func() { armErr = e.ArmFault(Fault{Rank: 0, Iteration: info.Iteration - 1}) })
	})
	runEngine(t, factory, Config{
		Policy:      NewSPBCProtocol([]int{0, 0, 1, 1}),
		Interval:    2,
		Steps:       steps,
		Storage:     checkpoint.NewMemoryStorage(),
		Faults:      []Fault{{Rank: 2, Iteration: 5}},
		Faultpoints: reg,
	}, nil)
	if armErr == nil {
		t.Fatal("cross-group chained fault below the arming boundary must be rejected")
	}
	if !strings.Contains(armErr.Error(), "have not yet re-logged") {
		t.Fatalf("unexpected error: %v", armErr)
	}
}

// TestArmFaultLivenessErrorIsDeterministic: the rejection of a chained fault
// whose set excludes a recovering group names the lowest rank of the first
// excluded group, so the message is the same on every call.
func TestArmFaultLivenessErrorIsDeterministic(t *testing.T) {
	const ranks, steps = 8, 8
	var errs []string
	var once sync.Once
	reg := NewFaultRegistry().Register(PointRecoveryStart, func(e *Engine, info PointInfo) {
		once.Do(func() {
			for i := 0; i < 20; i++ {
				err := e.ArmFault(Fault{Rank: 1, Iteration: info.Iteration - 1})
				if err == nil {
					t.Error("chained fault outside the recovering group was accepted")
					return
				}
				errs = append(errs, err.Error())
			}
		})
	})
	runEngine(t, app.NewRing(16, 3), Config{
		Policy:      NewSPBCProtocol(contiguous8()),
		Interval:    2,
		Steps:       steps,
		Storage:     checkpoint.NewMemoryStorage(),
		Faults:      []Fault{{Rank: 6, Iteration: 5}},
		Faultpoints: reg,
	}, nil)
	const want = "core: chained fault on rank 1 at iteration 4 rolls back a set that excludes recovering rank 4: " +
		"below the arming boundary 5 the recovering ranks have not yet re-logged the sends the chained rollback " +
		"must replay; target the recovery's own group or use iteration 5"
	if len(errs) != 20 {
		t.Fatalf("collected %d errors, want 20", len(errs))
	}
	for i, got := range errs {
		if got != want {
			t.Fatalf("call %d: error\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestScheduleFaultValidatesBounds pins the range checks of the quiescent
// scheduling API.
func TestScheduleFaultValidatesBounds(t *testing.T) {
	w, err := mpi.NewWorld(4, testCost())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	eng, err := NewEngine(w, Config{
		Policy:   NewSPBCProtocol([]int{0, 0, 1, 1}),
		Interval: 2,
		Steps:    8,
		Storage:  checkpoint.NewMemoryStorage(),
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := eng.ScheduleFault(Fault{Rank: 4, Iteration: 2}); err == nil {
		t.Fatal("out-of-range rank must be rejected")
	}
	if err := eng.ScheduleFault(Fault{Rank: 1, Iteration: 8}); err == nil {
		t.Fatal("iteration at Steps must be rejected (no boundary after the last step)")
	}
	if err := eng.ScheduleFault(Fault{Rank: 1, Iteration: -1}); err == nil {
		t.Fatal("negative iteration must be rejected")
	}
}

// TestFaultRegistryOrderAndChaining: hooks of one point run in registration
// order, other points stay silent, and Register chains.
func TestFaultRegistryOrderAndChaining(t *testing.T) {
	var got []string
	reg := NewFaultRegistry().
		Register(PointPreCapture, func(_ *Engine, _ PointInfo) { got = append(got, "a") }).
		Register(PointPreCapture, func(_ *Engine, _ PointInfo) { got = append(got, "b") }).
		Register(PointRecoveryEnd, func(_ *Engine, _ PointInfo) { got = append(got, "x") })
	reg.fire(nil, PointInfo{Point: PointPreCapture})
	if want := []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("hook order = %v, want %v", got, want)
	}
	reg.fire(nil, PointInfo{Point: PointMidCommitDrain})
	if len(got) != 2 {
		t.Fatalf("unregistered point fired hooks: %v", got)
	}
}

// TestEngineFaultPointsFireAcrossLifecycle runs a faulty SPBC execution with
// every point instrumented and asserts each fires with sensible context.
func TestEngineFaultPointsFireAcrossLifecycle(t *testing.T) {
	const ranks, steps = 4, 8
	factory := app.NewRing(16, 3)

	var mu sync.Mutex
	counts := make(map[FaultPoint]int)
	var recoveryStarts, recoveryEnds []PointInfo
	reg := NewFaultRegistry()
	for _, p := range []FaultPoint{PointPreCapture, PointPostCapture, PointMidCommitDrain, PointRecoveryStart, PointRecoveryEnd} {
		p := p
		reg.Register(p, func(_ *Engine, info PointInfo) {
			mu.Lock()
			defer mu.Unlock()
			counts[p]++
			switch p {
			case PointRecoveryStart:
				recoveryStarts = append(recoveryStarts, info)
			case PointRecoveryEnd:
				recoveryEnds = append(recoveryEnds, info)
			}
		})
	}
	eng := runEngine(t, factory, Config{
		Policy:      NewSPBCProtocol([]int{0, 0, 1, 1}),
		Interval:    2,
		Steps:       steps,
		Storage:     checkpoint.NewMemoryStorage(),
		Faults:      []Fault{{Rank: 2, Iteration: 5}},
		Faultpoints: reg,
	}, nil)

	mu.Lock()
	defer mu.Unlock()
	if counts[PointPreCapture] == 0 || counts[PointPreCapture] != counts[PointPostCapture] {
		t.Fatalf("capture points unbalanced: pre=%d post=%d", counts[PointPreCapture], counts[PointPostCapture])
	}
	waves := eng.Metrics().CheckpointWaves
	if counts[PointMidCommitDrain] < waves {
		t.Fatalf("mid-commit-drain fired %d times, want >= %d (every durable wave drains)", counts[PointMidCommitDrain], waves)
	}
	if len(recoveryStarts) != 1 {
		t.Fatalf("recovery-start fired %d times, want 1 (leader-only, once per event)", len(recoveryStarts))
	}
	if info := recoveryStarts[0]; info.Iteration != 5 || info.Wave != -1 {
		t.Fatalf("recovery-start context = %+v, want Iteration 5, Wave -1", info)
	}
	// Both rolled-back ranks re-execute to the failure point and end recovery.
	if len(recoveryEnds) != 2 {
		t.Fatalf("recovery-end fired %d times, want 2 (ranks 2 and 3)", len(recoveryEnds))
	}
	for _, info := range recoveryEnds {
		if info.Rank != 2 && info.Rank != 3 {
			t.Fatalf("recovery-end on rank %d, want a rolled-back rank", info.Rank)
		}
	}
}

// TestEngineDoubleFaultDuringReplay is the core-level double-fault proof: a
// recovery-start hook chains a second failure of the co-rollback peer into
// the replay window, so the second fault strikes while ranks 2 and 3 are
// still re-executing under send suppression. The run must still converge to
// the failure-free execution bit-identically.
func TestEngineDoubleFaultDuringReplay(t *testing.T) {
	const ranks, steps = 4, 8
	clusterOf := []int{0, 0, 1, 1}
	factory := app.NewRing(16, 3)

	recNative := trace.NewRecorder(ranks)
	wantVerify := runNative(t, factory, ranks, steps, recNative)

	var once sync.Once
	var armErr error
	reg := NewFaultRegistry().Register(PointRecoveryStart, func(e *Engine, info PointInfo) {
		// Only the first recovery chains; the chained event's own
		// recovery-start hook must not arm a third failure.
		once.Do(func() { armErr = e.ArmFault(Fault{Rank: 3, Iteration: info.Iteration}) })
	})

	rec := trace.NewRecorder(ranks)
	eng := runEngine(t, factory, Config{
		Policy:      NewSPBCProtocol(clusterOf),
		Interval:    2,
		Steps:       steps,
		Storage:     checkpoint.NewMemoryStorage(),
		Faults:      []Fault{{Rank: 2, Iteration: 5}},
		Faultpoints: reg,
	}, rec)
	if armErr != nil {
		t.Fatalf("ArmFault inside recovery-start hook: %v", armErr)
	}

	if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("post-double-fault verify = %v, want failure-free %v", got, wantVerify)
	}
	if err := trace.CheckFilteredChannelDeterminism(recNative, rec, appTraffic); err != nil {
		t.Fatalf("replay not bit-identical after double fault: %v", err)
	}
	m := eng.Metrics()
	if m.RecoveryEvents != 2 {
		t.Fatalf("recovery events = %d, want 2 (the plan fault and the chained fault)", m.RecoveryEvents)
	}
	if want := []int{2, 3}; !reflect.DeepEqual(m.RolledBackRanks, want) {
		t.Fatalf("rolled-back ranks = %v, want %v", m.RolledBackRanks, want)
	}
	if m.RestoredCheckpoints != 4 {
		t.Fatalf("restored checkpoints = %d, want 4 (2 ranks x 2 recoveries)", m.RestoredCheckpoints)
	}
}

// TestEngineDoubleFaultCrossCluster chains a failure of the *other* cluster
// into a recovery: while cluster 1 replays, cluster 0 fails at the same
// boundary. Both clusters roll back; the runs must still converge.
func TestEngineDoubleFaultCrossCluster(t *testing.T) {
	const ranks, steps = 4, 8
	factory := app.NewRing(16, 3)

	recNative := trace.NewRecorder(ranks)
	wantVerify := runNative(t, factory, ranks, steps, recNative)

	var once sync.Once
	var armErr error
	reg := NewFaultRegistry().Register(PointRecoveryStart, func(e *Engine, info PointInfo) {
		once.Do(func() { armErr = e.ArmFault(Fault{Rank: 0, Iteration: info.Iteration}) })
	})

	rec := trace.NewRecorder(ranks)
	eng := runEngine(t, factory, Config{
		Policy:      NewSPBCProtocol([]int{0, 0, 1, 1}),
		Interval:    2,
		Steps:       steps,
		Storage:     checkpoint.NewMemoryStorage(),
		Faults:      []Fault{{Rank: 2, Iteration: 5}},
		Faultpoints: reg,
	}, rec)
	if armErr != nil {
		t.Fatalf("ArmFault inside recovery-start hook: %v", armErr)
	}
	if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("verify = %v, want %v", got, wantVerify)
	}
	if err := trace.CheckFilteredChannelDeterminism(recNative, rec, appTraffic); err != nil {
		t.Fatalf("replay not bit-identical after cross-cluster double fault: %v", err)
	}
	m := eng.Metrics()
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(m.RolledBackRanks, want) {
		t.Fatalf("rolled-back ranks = %v, want %v", m.RolledBackRanks, want)
	}
	if m.RecoveryEvents != 2 {
		t.Fatalf("recovery events = %d, want 2", m.RecoveryEvents)
	}
}
