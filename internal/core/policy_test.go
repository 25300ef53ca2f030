package core

import (
	"reflect"
	"testing"

	"repro/internal/app"
	"repro/internal/checkpoint"
	"repro/internal/model"
	"repro/internal/mpi"
)

// TestPolicyShapes pins each constructor's partition and the logging
// relation derived from it, over every (src, dst) pair of a 4-rank world.
func TestPolicyShapes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pol     *Policy
		groupOf []int
		logs    func(src, dst int) bool
	}{
		// The hybrid logs exactly the inter-cluster messages.
		{"spbc", NewSPBCProtocol([]int{0, 0, 1, 1}), []int{0, 0, 1, 1},
			func(src, dst int) bool { return src/2 != dst/2 }},
		// Coordinated checkpointing is one global group and logs nothing.
		{"coordinated", NewCoordinatedProtocol(4), []int{0, 0, 0, 0},
			func(int, int) bool { return false }},
		// Full logging is one group per rank and logs every message.
		{"full-log", NewFullLogProtocol(4), []int{0, 1, 2, 3},
			func(src, dst int) bool { return src != dst }},
	} {
		v, err := NewEpochView(0, tc.pol.groupOf)
		if err != nil {
			t.Fatalf("%s: NewEpochView: %v", tc.name, err)
		}
		if !reflect.DeepEqual(v.GroupOf(), tc.groupOf) {
			t.Fatalf("%s groups = %v, want %v", tc.name, v.GroupOf(), tc.groupOf)
		}
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				if got, want := v.Logs(src, dst), tc.logs(src, dst); got != want {
					t.Fatalf("%s Logs(%d, %d) = %v, want %v", tc.name, src, dst, got, want)
				}
			}
		}
	}
}

func TestNewEpochView(t *testing.T) {
	if _, err := NewEpochView(0, []int{0, -1}); err == nil {
		t.Fatalf("negative group accepted")
	}
	if _, err := NewEpochView(0, []int{0, 7}); err == nil {
		t.Fatalf("out-of-range group accepted")
	}
	if _, err := NewEpochView(0, []int{0, 2, 2}); err == nil {
		t.Fatalf("sparse group ids accepted")
	}
	v, err := NewEpochView(3, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatalf("NewEpochView: %v", err)
	}
	if v.Epoch() != 3 || v.Groups() != 2 || v.Group(2) != 1 || v.GroupSize(0) != 2 {
		t.Fatalf("view shape wrong: %+v", v)
	}
	if !reflect.DeepEqual(v.Members(1), []int{2, 3}) {
		t.Fatalf("view members = %v", v.Members(1))
	}
	if v.Logs(0, 1) || !v.Logs(0, 2) {
		t.Fatalf("view logging relation wrong")
	}
	if !reflect.DeepEqual(v.GroupOf(), []int{0, 0, 1, 1}) {
		t.Fatalf("view groups = %v", v.GroupOf())
	}
}

func TestConfigPolicyResolution(t *testing.T) {
	if _, err := (&Config{}).seed(); err == nil {
		t.Fatalf("config without policy accepted")
	}
	both := &Config{Policy: NewCoordinatedProtocol(2), Adaptive: &AdaptiveConfig{Seed: []int{0, 0}}, Interval: 1}
	if _, err := both.seed(); err == nil {
		t.Fatalf("config with both Policy and Adaptive accepted")
	}
	seed, err := (&Config{Policy: NewSPBCProtocol([]int{0, 0, 1})}).seed()
	if err != nil {
		t.Fatalf("static policy: %v", err)
	}
	if !reflect.DeepEqual(seed, []int{0, 0, 1}) {
		t.Fatalf("static policy resolved to %v, want its partition", seed)
	}
	if _, _, err := (&Config{Policy: NewSPBCProtocol([]int{0}), Steps: 1}).resolve(2); err == nil {
		t.Fatalf("assignment shorter than the world accepted")
	}
}

func TestEngineCoordinatedPolicyRollsBackWholeWorld(t *testing.T) {
	const ranks, steps = 4, 8
	factory := app.NewRing(12, 2)
	wantVerify := runNative(t, factory, ranks, steps, nil)

	storage := newCountingStorage()
	eng := runEngine(t, factory, Config{
		Policy:   NewCoordinatedProtocol(ranks),
		Interval: 3,
		Steps:    steps,
		Storage:  storage,
		Faults:   []Fault{{Rank: 2, Iteration: 5}},
	}, nil)

	if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("coordinated recovery verify = %v, want %v", got, wantVerify)
	}
	m := eng.Metrics()
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(m.RolledBackRanks, want) {
		t.Fatalf("coordinated rollback is global: rolled back %v, want %v", m.RolledBackRanks, want)
	}
	if m.ReplayedRecords != 0 || m.ReplayedBytes != 0 {
		t.Fatalf("coordinated checkpointing has no logs to replay: %+v", m)
	}
	var logged uint64
	for r := 0; r < ranks; r++ {
		logged += eng.Store(r).CumulativeBytes()
	}
	if logged != 0 {
		t.Fatalf("coordinated checkpointing logged %d bytes, want 0", logged)
	}
	for r := 0; r < ranks; r++ {
		if n := storage.loadsOf(r); n != 1 {
			t.Fatalf("rank %d loaded %d checkpoints, want 1 (everyone restores)", r, n)
		}
	}
}

func TestEngineFullLogPolicyRollsBackOnlyFailedRank(t *testing.T) {
	const ranks, steps = 4, 8
	factory := app.NewRing(12, 2)
	wantVerify := runNative(t, factory, ranks, steps, nil)

	storage := newCountingStorage()
	eng := runEngine(t, factory, Config{
		Policy:   NewFullLogProtocol(ranks),
		Interval: 3,
		Steps:    steps,
		Storage:  storage,
		Faults:   []Fault{{Rank: 2, Iteration: 5}},
	}, nil)

	if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("full-log recovery verify = %v, want %v", got, wantVerify)
	}
	m := eng.Metrics()
	if want := []int{2}; !reflect.DeepEqual(m.RolledBackRanks, want) {
		t.Fatalf("full-log rollback is single-rank: rolled back %v, want %v", m.RolledBackRanks, want)
	}
	if m.ReplayedRecords == 0 {
		t.Fatalf("full-log recovery must replay logged messages")
	}
	for r := 0; r < ranks; r++ {
		if eng.Store(r).CumulativeBytes() == 0 {
			t.Fatalf("full logging must log on every rank, rank %d logged nothing", r)
		}
		want := 0
		if r == 2 {
			want = 1
		}
		if n := storage.loadsOf(r); n != want {
			t.Fatalf("rank %d loaded %d checkpoints, want %d", r, n, want)
		}
	}
}

func TestEngineFullLogPolicySolver(t *testing.T) {
	const ranks, steps = 4, 8
	factory := app.NewSolver(16)
	wantVerify := runNative(t, factory, ranks, steps, nil)
	eng := runEngine(t, factory, Config{
		Policy:   NewFullLogProtocol(ranks),
		Interval: 2,
		Steps:    steps,
		Storage:  checkpoint.NewMemoryStorage(),
		Faults:   []Fault{{Rank: 0, Iteration: 3}, {Rank: 3, Iteration: 6}},
	}, nil)
	if got := eng.VerifyValues(); !reflect.DeepEqual(got, wantVerify) {
		t.Fatalf("full-log solver verify = %v, want %v", got, wantVerify)
	}
	m := eng.Metrics()
	if want := []int{0, 3}; !reflect.DeepEqual(m.RolledBackRanks, want) {
		t.Fatalf("rolled back %v, want %v (one rank per fault)", m.RolledBackRanks, want)
	}
	if m.RecoveryEvents != 2 {
		t.Fatalf("recovery events = %d, want 2", m.RecoveryEvents)
	}
}

// TestEpochViewCommsAreInterned covers both paths that publish an epoch
// view — NewEngine's seed view and an adaptive epoch switch. For every group
// the view's comm must be the world's interned comm for the group's
// membership (the pointer the rank would have got by interning it itself),
// and comm ids must not depend on the run.
func TestEpochViewCommsAreInterned(t *testing.T) {
	// commIDs runs one engine and returns, per published view in epoch
	// order, its groups' comm ids.
	commIDs := func(t *testing.T, cfg Config, factory model.AppFactory) [][]int {
		t.Helper()
		w, err := mpi.NewWorld(8, testCost())
		if err != nil {
			t.Fatal(err)
		}
		var views []*EpochView
		cfg.Faultpoints = NewFaultRegistry().Register(PointEpochSwitch, func(e *Engine, _ PointInfo) {
			views = append(views, e.currentView())
		})
		eng, err := NewEngine(w, cfg)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		views = append(views, eng.currentView())
		if err := eng.Run(factory); err != nil {
			t.Fatalf("engine run: %v", err)
		}
		var ids [][]int
		for _, v := range views {
			var row []int
			for g := 0; g < v.Groups(); g++ {
				c, err := w.InternComm(v.Members(g))
				if err != nil {
					t.Fatalf("epoch %d group %d: InternComm: %v", v.Epoch(), g, err)
				}
				if v.Comm(g) != c {
					t.Errorf("epoch %d group %d: view comm %p (id %d) is not the interned comm %p (id %d)",
						v.Epoch(), g, v.Comm(g), v.Comm(g).ID(), c, c.ID())
				}
				row = append(row, c.ID())
			}
			ids = append(ids, row)
		}
		return ids
	}
	for _, tc := range []struct {
		name    string
		cfg     func() Config
		factory model.AppFactory
		views   int // at least
	}{
		{"static", func() Config {
			return Config{
				Policy:   NewSPBCProtocol([]int{0, 0, 1, 1, 2, 2, 3, 3}),
				Interval: 2,
				Steps:    4,
				Storage:  checkpoint.NewMemoryStorage(),
			}
		}, app.NewRing(16, 3), 1},
		{"adaptive", func() Config { return adaptiveConfig(contiguous8(), 2, 12) }, app.NewPhaseShift(32, 2), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := commIDs(t, tc.cfg(), tc.factory)
			if len(first) < tc.views {
				t.Fatalf("%d views published, want at least %d", len(first), tc.views)
			}
			if again := commIDs(t, tc.cfg(), tc.factory); !reflect.DeepEqual(again, first) {
				t.Errorf("comm ids differ across fresh runs: %v then %v", first, again)
			}
			t.Logf("comm ids per view: %v", first)
		})
	}
}
