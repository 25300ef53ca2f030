// Package runner is the experiment layer of the reproduction: a declarative
// Scenario describes one run (ranks, placement, cluster count, cost model,
// checkpoint interval, fault plan, workload), runner.Run executes it and
// returns a structured, JSON-serializable Report.
//
// A Scenario can run under five protocols with the same application kernel,
// exactly as the paper's evaluation runs the same binaries under unmodified
// and modified MPICH — the two baselines are the extremes SPBC hybridizes:
//
//   - ProtocolNative: bare mpi runtime (mpi.NopProtocol), no checkpointing —
//     the baseline the paper normalizes against;
//   - ProtocolCoordinated: pure coordinated checkpointing
//     (core.NewCoordinatedProtocol, one global group) — global checkpoint
//     waves, no logging, full-world rollback on any failure;
//   - ProtocolFullLog: full sender-based message logging
//     (core.NewFullLogProtocol, one group per rank) — every message logged,
//     per-process checkpointing, single-rank rollback;
//   - ProtocolSPBC: the paper's hybrid (core.NewSPBCProtocol, one group per
//     cluster) — profile-driven clustering, coordinated per-cluster
//     checkpoints, sender-based inter-cluster logging, and cluster-local
//     recovery;
//   - ProtocolSPBCAdaptive: the hybrid with adaptive epoch-based clustering
//     (core.Config.Adaptive) — the partition is re-evaluated from the live
//     communication profile at every checkpoint-wave boundary and migrates
//     when the projected logged-byte saving clears a hysteresis threshold.
//
// Under the SPBC variants, the (initial) cluster assignment is computed from
// a short profiling pre-run of the same kernel (the paper obtains its
// partitions from execution profiles, Section 6.1).
package runner

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/clustering"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Protocol selects the runtime a scenario executes under.
type Protocol string

const (
	// ProtocolNative is the unmodified-MPI baseline.
	ProtocolNative Protocol = "native"
	// ProtocolCoordinated is pure coordinated checkpointing.
	ProtocolCoordinated Protocol = "coordinated"
	// ProtocolFullLog is full sender-based message logging.
	ProtocolFullLog Protocol = "full-log"
	// ProtocolSPBC is the hybrid checkpointing/message-logging protocol.
	ProtocolSPBC Protocol = "spbc"
	// ProtocolSPBCAdaptive is SPBC with adaptive epoch-based clustering: the
	// partition is re-evaluated from the live communication profile at every
	// checkpoint-wave boundary and repartitions when the projected
	// logged-byte saving clears the hysteresis thresholds.
	ProtocolSPBCAdaptive Protocol = "spbc-adaptive"
)

// Protocols lists every supported protocol, baseline first.
func Protocols() []Protocol {
	return []Protocol{ProtocolNative, ProtocolCoordinated, ProtocolFullLog, ProtocolSPBC, ProtocolSPBCAdaptive}
}

// ParseProtocol resolves a protocol name, as used by command-line tools.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range Protocols() {
		if string(p) == s {
			return p, nil
		}
	}
	return "", fmt.Errorf("runner: unknown protocol %q (have %v)", s, Protocols())
}

// Scenario declares one experiment.
type Scenario struct {
	// Name labels the run in reports.
	Name string
	// App creates the per-rank application instances.
	App model.AppFactory
	// Ranks is the number of MPI processes.
	Ranks int
	// RanksPerNode is the physical placement (ranks hosted per node); it
	// constrains clustering and selects intra-node communication costs.
	// Defaults to 1.
	RanksPerNode int
	// Clusters is the number of SPBC clusters. Defaults to 2 (clamped to the
	// rank count). Only ProtocolSPBC uses it: the other protocols' group
	// structures are fixed by the world size.
	Clusters int
	// ClusterOf, if set, is a precomputed SPBC cluster assignment (one entry
	// per rank); it skips the profiling pre-run. Harnesses that run the same
	// configuration repeatedly (e.g. the bench sweep's failure-free and
	// faulty twins) use it to reuse one partition. Under ProtocolSPBC it is
	// the run's fixed partition; under ProtocolSPBCAdaptive it is the epoch-0
	// seed.
	ClusterOf []int
	// Adaptive tunes adaptive clustering (ProtocolSPBCAdaptive). Nil selects
	// the defaults when the protocol is adaptive.
	Adaptive *AdaptiveOptions
	// Steps is the number of application iterations.
	Steps int
	// CheckpointInterval is the coordinated-checkpoint period in iterations.
	// 0 disables checkpointing unless the fault plan requires it, in which
	// case it defaults to max(1, Steps/4).
	CheckpointInterval int
	// Protocol selects the runtime. Defaults to ProtocolSPBC.
	Protocol Protocol
	// Objective is the clustering objective (total logged volume by default).
	Objective clustering.Objective
	// Cost is the virtual-time cost model. Defaults to simnet.DefaultCostModel
	// with RanksPerNode overridden from the scenario.
	Cost *simnet.CostModel
	// Faults is the failure plan (any protocol except ProtocolNative).
	Faults []core.Fault
	// ProfileSteps is the length of the clustering profiling pre-run
	// (ProtocolSPBC only). Defaults to min(Steps, 2).
	ProfileSteps int
	// Storage receives the checkpoints. Defaults to in-memory storage.
	Storage checkpoint.Storage
	// Recorder, if set, is attached to the measured world so callers can run
	// trace-based determinism analyses.
	Recorder *trace.Recorder
	// Chaos attaches chaos instrumentation (any protocol except
	// ProtocolNative): lifecycle hooks and storage fault injection.
	Chaos *ChaosSpec
}

// ChaosSpec is the chaos instrumentation of one scenario: the runner-level
// surface the internal/chaos subsystem compiles its scenarios into.
type ChaosSpec struct {
	// Faultpoints receives the engine's lifecycle hook firings (fault
	// scheduling windows, commit-drain stalls, recovery observation).
	Faultpoints *core.FaultRegistry
	// WrapStorage, if set, decorates the scenario's checkpoint storage after
	// defaulting — typically with checkpoint.NewFaultStorage.
	WrapStorage func(checkpoint.Storage) checkpoint.Storage
	// NetChaos, if set, attaches the deterministic network perturbation layer
	// (delays, reorder windows, hold buffers, partitions) to the protected
	// world.
	NetChaos *simnet.NetChaos
}

// AdaptiveOptions tunes adaptive epoch-based clustering.
type AdaptiveOptions struct {
	// Hysteresis is the repartitioning threshold: a candidate partition is
	// adopted only when its projected logged-byte saving over the last
	// profile window clears it. The zero value selects clustering defaults
	// (10% of the window's logged volume and at least 1 KiB).
	Hysteresis clustering.Hysteresis
}

// normalize applies defaults and validates the scenario.
func (s *Scenario) normalize() error {
	if s.App == nil {
		return fmt.Errorf("runner: scenario needs an application factory")
	}
	if s.Ranks <= 0 {
		return fmt.Errorf("runner: ranks must be positive, got %d", s.Ranks)
	}
	if s.Steps <= 0 {
		return fmt.Errorf("runner: steps must be positive, got %d", s.Steps)
	}
	if s.RanksPerNode <= 0 {
		s.RanksPerNode = 1
	}
	if s.Protocol == "" {
		s.Protocol = ProtocolSPBC
	}
	if _, err := ParseProtocol(string(s.Protocol)); err != nil {
		return err
	}
	if s.Protocol == ProtocolNative && len(s.Faults) > 0 {
		return fmt.Errorf("runner: the native baseline cannot recover from faults")
	}
	if s.Protocol == ProtocolNative && s.Chaos != nil {
		return fmt.Errorf("runner: the native baseline has no chaos surface (no engine lifecycle, no checkpoint storage)")
	}
	if s.Clusters <= 0 {
		s.Clusters = 2
	}
	if s.Clusters > s.Ranks {
		s.Clusters = s.Ranks
	}
	if s.ClusterOf != nil {
		if s.Protocol != ProtocolSPBC && s.Protocol != ProtocolSPBCAdaptive {
			return fmt.Errorf("runner: a cluster assignment only applies to %s or %s, not %s", ProtocolSPBC, ProtocolSPBCAdaptive, s.Protocol)
		}
		if len(s.ClusterOf) != s.Ranks {
			return fmt.Errorf("runner: cluster assignment has %d entries for %d ranks", len(s.ClusterOf), s.Ranks)
		}
	}
	if s.Adaptive != nil && s.Protocol != ProtocolSPBCAdaptive {
		return fmt.Errorf("runner: adaptive options only apply to %s, not %s", ProtocolSPBCAdaptive, s.Protocol)
	}
	// Adaptive clustering needs checkpoint waves even without faults: epochs
	// open only at wave boundaries.
	if s.CheckpointInterval == 0 && (len(s.Faults) > 0 || s.Chaos != nil || s.Protocol == ProtocolSPBCAdaptive) {
		s.CheckpointInterval = s.Steps / 4
		if s.CheckpointInterval < 1 {
			s.CheckpointInterval = 1
		}
	}
	if s.ProfileSteps <= 0 {
		s.ProfileSteps = 2
	}
	if s.ProfileSteps > s.Steps {
		s.ProfileSteps = s.Steps
	}
	if s.Cost == nil {
		c := simnet.DefaultCostModel()
		s.Cost = &c
	} else {
		c := *s.Cost // never mutate the caller's model
		s.Cost = &c
	}
	s.Cost.RanksPerNode = s.RanksPerNode
	if s.Storage == nil && (s.CheckpointInterval > 0 || len(s.Faults) > 0) {
		s.Storage = checkpoint.NewMemoryStorage()
	}
	if s.Chaos != nil && s.Chaos.WrapStorage != nil && s.Storage != nil {
		s.Storage = s.Chaos.WrapStorage(s.Storage)
	}
	return nil
}

// Run executes the scenario and returns its report.
func Run(sc Scenario) (*Report, error) {
	if err := sc.normalize(); err != nil {
		return nil, err
	}
	switch sc.Protocol {
	case ProtocolNative:
		return runNative(&sc)
	default:
		return runProtected(&sc)
	}
}

// appLoop drives one rank of an unprotected (native) execution.
func appLoop(p *mpi.Proc, factory model.AppFactory, steps int, verify []float64) error {
	a := factory()
	proc := model.NewNativeProcess(p)
	if err := a.Init(proc); err != nil {
		return fmt.Errorf("runner: rank %d: init: %w", p.Rank(), err)
	}
	for i := 0; i < steps; i++ {
		if err := a.Step(i); err != nil {
			return fmt.Errorf("runner: rank %d: step %d: %w", p.Rank(), i, err)
		}
	}
	v, err := a.Verify()
	if err != nil {
		return fmt.Errorf("runner: rank %d: verify: %w", p.Rank(), err)
	}
	verify[p.Rank()] = v
	return nil
}

// runNative executes the baseline.
func runNative(sc *Scenario) (*Report, error) {
	var wopts []mpi.Option
	if sc.Recorder != nil {
		wopts = append(wopts, mpi.WithRecorder(sc.Recorder))
	}
	w, err := mpi.NewWorld(sc.Ranks, *sc.Cost, wopts...)
	if err != nil {
		return nil, err
	}
	verify := make([]float64, sc.Ranks)
	if err := w.Run(func(p *mpi.Proc) error {
		return appLoop(p, sc.App, sc.Steps, verify)
	}); err != nil {
		return nil, err
	}
	return buildReport(sc, w, nil, verify), nil
}

// engineConfig builds the core.Config of a protected scenario. Only the SPBC
// variants need the profiling pre-run; the two baselines are degenerate
// group structures fixed by the world size. Under ProtocolSPBCAdaptive the
// profiled partition becomes the epoch-0 seed of the adaptive policy.
func engineConfig(sc *Scenario) (core.Config, error) {
	cfg := core.Config{
		Interval: sc.CheckpointInterval,
		Steps:    sc.Steps,
		Storage:  sc.Storage,
		Faults:   sc.Faults,
	}
	if sc.Chaos != nil {
		cfg.Faultpoints = sc.Chaos.Faultpoints
	}
	switch sc.Protocol {
	case ProtocolCoordinated:
		cfg.Policy = core.NewCoordinatedProtocol(sc.Ranks)
	case ProtocolFullLog:
		cfg.Policy = core.NewFullLogProtocol(sc.Ranks)
	case ProtocolSPBC, ProtocolSPBCAdaptive:
		clusterOf := sc.ClusterOf
		if clusterOf == nil {
			var err error
			if clusterOf, err = profileAndPartition(sc); err != nil {
				return core.Config{}, err
			}
		}
		if sc.Protocol == ProtocolSPBC {
			cfg.Policy = core.NewSPBCProtocol(clusterOf)
			break
		}
		adapt := &core.AdaptiveConfig{
			Seed:         clusterOf,
			RanksPerNode: sc.RanksPerNode,
			Objective:    sc.Objective,
		}
		if sc.Adaptive != nil {
			adapt.Hysteresis = sc.Adaptive.Hysteresis
		}
		cfg.Adaptive = adapt
	default:
		return core.Config{}, fmt.Errorf("runner: protocol %q has no engine policy", sc.Protocol)
	}
	return cfg, nil
}

// runProtected executes the scenario under the engine with the policy the
// scenario's protocol selects.
func runProtected(sc *Scenario) (*Report, error) {
	cfg, err := engineConfig(sc)
	if err != nil {
		return nil, err
	}
	var wopts []mpi.Option
	if sc.Recorder != nil {
		wopts = append(wopts, mpi.WithRecorder(sc.Recorder))
	}
	if sc.Chaos != nil && sc.Chaos.NetChaos != nil {
		wopts = append(wopts, mpi.WithNetChaos(sc.Chaos.NetChaos))
	}
	w, err := mpi.NewWorld(sc.Ranks, *sc.Cost, wopts...)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(w, cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Run(sc.App); err != nil {
		return nil, err
	}
	return buildReport(sc, w, eng, eng.VerifyValues()), nil
}

// profileAndPartition runs the kernel natively for a few iterations, builds
// the communication profile and partitions the ranks into clusters.
func profileAndPartition(sc *Scenario) ([]int, error) {
	w, err := mpi.NewWorld(sc.Ranks, *sc.Cost)
	if err != nil {
		return nil, err
	}
	verify := make([]float64, sc.Ranks)
	if err := w.Run(func(p *mpi.Proc) error {
		return appLoop(p, sc.App, sc.ProfileSteps, verify)
	}); err != nil {
		return nil, fmt.Errorf("runner: profiling run: %w", err)
	}
	prof := core.BuildProfile(w, sc.RanksPerNode)
	clusterOf, err := clustering.Partition(prof, sc.Clusters, sc.Objective)
	if err != nil {
		return nil, err
	}
	if err := clustering.Validate(prof, clusterOf, sc.Clusters, sc.Clusters < prof.Ranks); err != nil {
		return nil, err
	}
	return clusterOf, nil
}

// buildReport assembles the structured report of a finished run.
func buildReport(sc *Scenario, w *mpi.World, eng *core.Engine, verify []float64) *Report {
	name := sc.Name
	appName := sc.App().Name()
	if name == "" {
		name = appName
	}
	rep := &Report{
		Scenario: ScenarioInfo{
			Name:               name,
			Ranks:              sc.Ranks,
			RanksPerNode:       sc.RanksPerNode,
			Steps:              sc.Steps,
			CheckpointInterval: sc.CheckpointInterval,
			Protocol:           sc.Protocol,
			Objective:          sc.Objective.String(),
			Faults:             sc.Faults,
		},
		App:      appName,
		Makespan: w.MaxTime(),
		Verify:   verify,
	}
	var clusterOf []int
	if eng != nil {
		clusterOf = eng.ClusterOf()
	}
	run := stats.RunReport{Name: name, Elapsed: rep.Makespan}
	for r := 0; r < w.Size(); r++ {
		p := w.Proc(r)
		view := p.Stats.Snapshot()
		rr := stats.RankReport{
			Rank:      r,
			CompTime:  view.CompTime,
			CommTime:  view.CommTime,
			Elapsed:   p.Now(),
			BytesSent: view.BytesSent,
			BytesRecv: view.BytesRecv,
			Sends:     view.Sends,
			Recvs:     view.Recvs,
		}
		rep.SuppressedSends += view.Suppressed
		if eng != nil {
			rr.Cluster = clusterOf[r]
			rr.BytesLogged = eng.Store(r).CumulativeBytes()
		}
		run.Ranks = append(run.Ranks, rr)
	}
	rep.Ranks = run.Ranks
	rep.AvgCommRatio = run.AvgCommRatio()
	rep.TotalLoggedBytes = run.TotalLoggedBytes()
	rep.LogGrowthAvgMBps, rep.LogGrowthMaxMBps = run.GrowthRates()
	if eng != nil {
		rep.Scenario.Clusters = eng.Clusters()
		rep.ClusterOf = clusterOf
		rep.ClusterSizes = clustering.ClusterSizes(rep.ClusterOf, eng.Clusters())
		rep.LoggedBytesPerCluster = eng.LoggedBytesByCluster()
		rep.Engine = eng.Metrics()
		rep.Epochs = eng.EpochHistory()
	}
	return rep
}
