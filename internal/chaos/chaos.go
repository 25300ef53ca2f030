// Package chaos turns fault injection from a static plan into composable,
// scripted failure scenarios. A Scenario couples a protected runner
// configuration with a list of chaos events built from the DSL in dsl.go:
// correlated crashes (NodeCrash, ClusterCrash), cascading failures (Cascade),
// faults pinned to engine lifecycle phases (During Recovery, EpochSwitch or
// CommitDrain) and storage sabotage (StorageFault). Events compile to the
// engine's fault-point registry and the checkpoint layer's fault-injectable
// storage — the schedule is driven by lifecycle hooks, not only virtual time.
//
// Check (check.go) is the invariant checker: it executes a scenario next to
// its failure-free twin and asserts bit-identical replay, per-protocol
// rollback-scope bounds, and that recovery never reads a checkpoint wave that
// was not durably committed. Generate (generate.go) samples seeded random
// scenarios from a profile for stress sweeps; the same seed always yields the
// same schedule, so a failing schedule is reproducible from its seed alone.
package chaos

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/checkpoint"
	"repro/internal/model"
	"repro/internal/runner"
)

// Workload selects the application kernel of a scenario as plain data, so
// generated scenarios stay comparable (and a schedule is fully described by
// its Scenario value).
type Workload struct {
	// Kind is "ring", "solver" or "phase-shift"; empty selects ring.
	Kind string
	// Size is the per-rank state size; 0 selects the kind's default.
	Size int
	// Param is the kind-specific parameter (ring reduce period, phase-shift
	// phase length); 0 selects the default.
	Param int
}

func (w Workload) factory() (model.AppFactory, error) {
	kind := w.Kind
	if kind == "" {
		kind = "ring"
	}
	size, param := w.Size, w.Param
	switch kind {
	case "ring":
		if size == 0 {
			size = 16
		}
		if param == 0 {
			param = 3
		}
		return app.NewRing(size, param), nil
	case "solver":
		if size == 0 {
			size = 16
		}
		return app.NewSolver(size), nil
	case "phase-shift":
		if size == 0 {
			size = 32
		}
		if param == 0 {
			param = 2
		}
		return app.NewPhaseShift(size, param), nil
	default:
		return nil, fmt.Errorf("chaos: unknown workload kind %q", kind)
	}
}

// Scenario is one named failure script: a protected run plus the chaos
// events injected into it. The zero values default to a 4-rank, 8-step SPBC
// run with a 2-iteration checkpoint interval and the ring workload.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Protocol is the protected runtime; defaults to runner.ProtocolSPBC.
	// ProtocolNative is rejected: the baseline has no chaos surface.
	Protocol runner.Protocol
	// Ranks is the world size (default 4).
	Ranks int
	// RanksPerNode is the physical placement (default 1); NodeCrash uses it
	// to expand one rank into its whole node.
	RanksPerNode int
	// ClusterOf is the SPBC partition (adaptive: the epoch-0 seed). Defaults
	// to a contiguous two-way split for the SPBC protocols.
	ClusterOf []int
	// Steps is the iteration count (default 8).
	Steps int
	// Interval is the checkpoint interval (default 2).
	Interval int
	// Workload is the application kernel.
	Workload Workload
	// Events is the failure script.
	Events []Event
	// NetSeed seeds the network-chaos layer's deterministic draws (jitter,
	// reorder permutations, release orders). The zero seed is valid; the seed
	// is irrelevant when the script has no network events.
	NetSeed int64
	// ExpectError marks scenarios whose run is *supposed* to fail (e.g.
	// detected checkpoint corruption): Check then asserts the run errors
	// instead of comparing it against the failure-free twin.
	ExpectError bool
	// Storage selects the checkpoint storage stack of the protected run; nil
	// keeps the runner default (plain in-memory storage).
	Storage *StorageSpec
}

// StorageSpec opts a scenario into the tiered checkpoint store, so chaos can
// exercise delta chains, cold demotion and the buddy-replica degradation
// paths. Event-level StorageFault rules still apply above the tier (they
// wrap the whole stack in a FaultStorage); ColdFaults sabotage the primary
// cold location underneath it.
type StorageSpec struct {
	// Tiered selects checkpoint.TieredStorage (delta frames + hot ring +
	// async cold demotion) instead of the default in-memory storage.
	Tiered bool
	// HotWaves is TieredConfig.HotWaves: 0 means the default ring size,
	// negative disables the hot ring so every recovery walks the cold tier.
	HotWaves int
	// Replica adds an in-memory buddy location receiving every demotion.
	Replica bool
	// ColdFaults sabotages the *primary* cold location only (OpStage targets
	// Put, OpLoad targets Get), so recovery must degrade to the replica.
	ColdFaults []checkpoint.FaultRule
}

// build constructs the tiered stack, returning the storage to run with (nil
// when the spec does not request one).
func (sp *StorageSpec) build() (*checkpoint.TieredStorage, error) {
	if sp == nil || !sp.Tiered {
		return nil, nil
	}
	var primary checkpoint.ColdStore = checkpoint.NewMemColdStore()
	if len(sp.ColdFaults) > 0 {
		fc, err := checkpoint.NewFaultColdStore(primary, sp.ColdFaults...)
		if err != nil {
			return nil, fmt.Errorf("chaos: building cold fault store: %w", err)
		}
		primary = fc
	}
	cfg := checkpoint.TieredConfig{
		HotWaves: sp.HotWaves,
		Cold:     primary,
		// Chaos runs are replayed and diffed against a twin; inline demotion
		// keeps the cold tier's state (and replica-fallback counts) a
		// deterministic function of the scenario instead of goroutine timing.
		SyncDemotion: true,
	}
	if sp.Replica {
		cfg.Replica = checkpoint.NewMemColdStore()
	}
	return checkpoint.NewTieredStorage(cfg), nil
}

// normalize applies scenario defaults in place and validates the fixed
// fields. Event-level validation happens at compile time.
func (s *Scenario) normalize() error {
	if s.Name == "" {
		return fmt.Errorf("chaos: scenario needs a name")
	}
	if s.Protocol == "" {
		s.Protocol = runner.ProtocolSPBC
	}
	if s.Protocol == runner.ProtocolNative {
		return fmt.Errorf("chaos: scenario %s: the native baseline has no chaos surface", s.Name)
	}
	if s.Ranks == 0 {
		s.Ranks = 4
	}
	if s.Ranks < 2 {
		return fmt.Errorf("chaos: scenario %s: needs at least 2 ranks, got %d", s.Name, s.Ranks)
	}
	if s.RanksPerNode <= 0 {
		s.RanksPerNode = 1
	}
	if s.Steps == 0 {
		s.Steps = 8
	}
	if s.Interval == 0 {
		s.Interval = 2
	}
	isSPBC := s.Protocol == runner.ProtocolSPBC || s.Protocol == runner.ProtocolSPBCAdaptive
	if s.ClusterOf == nil && isSPBC {
		s.ClusterOf = make([]int, s.Ranks)
		for r := range s.ClusterOf {
			if r >= s.Ranks/2 {
				s.ClusterOf[r] = 1
			}
		}
	}
	if s.ClusterOf != nil && len(s.ClusterOf) != s.Ranks {
		return fmt.Errorf("chaos: scenario %s: cluster assignment has %d entries for %d ranks", s.Name, len(s.ClusterOf), s.Ranks)
	}
	if len(s.Events) == 0 {
		return fmt.Errorf("chaos: scenario %s: no chaos events", s.Name)
	}
	return nil
}
