package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/app"
	"repro/internal/checkpoint"
	"repro/internal/clustering"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/runner"
	"repro/internal/simnet"
)

// spec is one frozen workload: a kernel, a world, a protocol and a storage
// stack. Later issues refer to workloads by name, so the parameters below
// change only in a PR that re-measures the baseline.
type spec struct {
	name     string
	kernel   string // the factory call, as result files state it
	factory  model.AppFactory
	ranks    int
	perNode  int // ranks per node: placement for clustering and the cost model
	clusters int // SPBC cluster count (static and adaptive seed)
	proto    runner.Protocol
	tiered   bool // TieredStorage over a MemColdStore instead of MemoryStorage
	steps    int
	interval int
	faults   bool // one single-rank fault per checkpoint interval, from the seed
}

// Steps were calibrated once on a 2-core host so a single run takes about
// 1-2 s: the contract gives each invocation ~30 s including the native twin
// and a warm-up, and a steady median needs at least five timed runs in it.
// Everything else is the issue's scenario.
var specs = []spec{
	{name: "halo_spbc", kernel: "app.NewRing(4, 0)", factory: app.NewRing(4, 0), ranks: 4096, perNode: 16, clusters: 256,
		proto: runner.ProtocolSPBC, steps: 48, interval: 16},
	{name: "solver_coord", kernel: "app.NewSolver(24)", factory: app.NewSolver(24), ranks: 4096, perNode: 1,
		proto: runner.ProtocolCoordinated, steps: 16, interval: 8},
	{name: "shift_ckpt", kernel: "app.NewPhaseShift(2048, 2)", factory: app.NewPhaseShift(2048, 2), ranks: 256, perNode: 1,
		proto: runner.ProtocolFullLog, tiered: true, steps: 8, interval: 2},
	{name: "halo_recovery", kernel: "app.NewRing(4, 0)", factory: app.NewRing(4, 0), ranks: 1024, perNode: 32, clusters: 4,
		proto: runner.ProtocolSPBC, steps: 128, interval: 16, faults: true},
	{name: "phase_adaptive", kernel: "app.NewPhaseShift(256, 8)", factory: app.NewPhaseShift(256, 8), ranks: 256, perNode: 2, clusters: 16,
		proto: runner.ProtocolSPBCAdaptive, steps: 24, interval: 4},
}

// params is a workload's frozen parameters as every result file states them
// (BENCHMARK.json may carry only a name and a reason per workload).
type params struct {
	Kernel       string `json:"kernel"`
	Ranks        int    `json:"ranks"`
	RanksPerNode int    `json:"ranks_per_node"`
	Clusters     int    `json:"clusters"`
	Protocol     string `json:"protocol"`
	Storage      string `json:"storage"`
	Steps        int    `json:"steps"`
	Interval     int    `json:"interval"`
	Faults       string `json:"faults"`
}

func (s *spec) params() params {
	p := params{
		Kernel: s.kernel, Ranks: s.ranks, RanksPerNode: s.perNode, Clusters: s.clusters,
		Protocol: string(s.proto), Storage: "memory", Steps: s.steps, Interval: s.interval, Faults: "none",
	}
	if s.tiered {
		p.Storage = "tiered over an in-memory cold store, default delta policy"
	}
	if s.faults {
		p.Faults = "one single-rank fault per interval, placed by the seed"
	}
	return p
}

func findSpec(name string) (*spec, bool) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], true
		}
	}
	return nil, false
}

func (s *spec) partitioned() bool {
	return s.proto == runner.ProtocolSPBC || s.proto == runner.ProtocolSPBCAdaptive
}

func (s *spec) cost() simnet.CostModel {
	c := simnet.DefaultCostModel()
	c.RanksPerNode = s.perNode
	return c
}

// boundaries is the number of checkpoint boundaries a failure-free run
// crosses (iteration 0 included).
func (s *spec) boundaries() int { return (s.steps + s.interval - 1) / s.interval }

// faultPlan places one single-rank fault in every checkpoint interval, at
// iteration interval*k + o. The offsets o are a seeded permutation of the
// upper half of the interval, so every seed re-executes the same total
// number of iterations and only the order, the victim ranks and therefore
// the interleaving change. The victim cluster rotates so every cluster
// recovers; simultaneous multi-cluster crashes are excluded (known hang,
// ROADMAP item 1).
func (s *spec) faultPlan(seed int64) []core.Fault {
	if !s.faults {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	half := s.interval / 2
	size := s.ranks / s.clusters
	var offsets []int
	var plan []core.Fault
	for k := 0; k < s.steps/s.interval; k++ {
		if len(offsets) == 0 {
			offsets = rng.Perm(half)
		}
		o := half + offsets[0]
		offsets = offsets[1:]
		cluster := k % s.clusters
		plan = append(plan, core.Fault{Rank: cluster*size + rng.Intn(size), Iteration: s.interval*k + o})
	}
	return plan
}

// twin is the native reference execution of a workload: the same kernel on
// a bare mpi.World with no protocol attached.
type twin struct {
	digests  []float64
	makespan float64
	sends    uint64
	bytes    uint64
}

// nativeLoop drives one rank of an unprotected execution.
func nativeLoop(p *mpi.Proc, factory model.AppFactory, steps int, digests []float64) error {
	a := factory()
	if err := a.Init(model.NewNativeProcess(p)); err != nil {
		return fmt.Errorf("rank %d: init: %w", p.Rank(), err)
	}
	for i := 0; i < steps; i++ {
		if err := a.Step(i); err != nil {
			return fmt.Errorf("rank %d: step %d: %w", p.Rank(), i, err)
		}
	}
	v, err := a.Verify()
	if err != nil {
		return fmt.Errorf("rank %d: verify: %w", p.Rank(), err)
	}
	digests[p.Rank()] = v
	return nil
}

// runNative executes the kernel natively and returns the world, the twin and
// the host time World.Run took.
func runNative(s *spec, steps int, opts ...mpi.Option) (*mpi.World, *twin, time.Duration, error) {
	w, err := mpi.NewWorld(s.ranks, s.cost(), opts...)
	if err != nil {
		return nil, nil, 0, err
	}
	t := &twin{digests: make([]float64, s.ranks)}
	start := time.Now()
	if err := w.Run(func(p *mpi.Proc) error { return nativeLoop(p, s.factory, steps, t.digests) }); err != nil {
		return nil, nil, 0, fmt.Errorf("native run: %w", err)
	}
	wall := time.Since(start)
	t.makespan = w.MaxTime()
	t.sends, t.bytes = worldTraffic(w)
	return w, t, wall, nil
}

func worldTraffic(w *mpi.World) (sends, bytes uint64) {
	for r := 0; r < w.Size(); r++ {
		v := w.Proc(r).Stats.Snapshot()
		sends += v.Sends
		bytes += v.BytesSent
	}
	return sends, bytes
}

// setupTimes splits setup_s by the layer that owns each part.
type setupTimes struct {
	profileBuild time.Duration // native profiling run + core.BuildProfile
	partition    time.Duration // clustering.Partition + Validate
	worldBuild   time.Duration
	engineBuild  time.Duration
}

// built is everything set-up produces: a fresh world and engine ready for
// Engine.Run, the storage under them and how long each part took.
type built struct {
	world   *mpi.World
	eng     *core.Engine
	storage checkpoint.Storage
	tier    *checkpoint.TieredStorage // nil on MemoryStorage workloads
	cold    checkpoint.ColdStore      // the tier's cold store, undecorated; nil when none
	times   setupTimes
}

// newStorage builds the workload's storage stack. A tiered workload demotes
// to cold, or to a fresh MemColdStore when cold is nil; a restart reopens
// the tier over the cold store a run filled. With a tracer the cold store and
// the wave storage are decorated; the committer's delta probe sees through
// the decorator by Unwrap.
func newStorage(s *spec, cold checkpoint.ColdStore, tr *tracer) (checkpoint.Storage, *checkpoint.TieredStorage, checkpoint.ColdStore) {
	var st checkpoint.WaveStorage
	var tier *checkpoint.TieredStorage
	if s.tiered {
		if cold == nil {
			cold = checkpoint.NewMemColdStore()
		}
		under := cold
		if tr != nil {
			under = &tracedCold{inner: cold, tr: tr}
		}
		tier = checkpoint.NewTieredStorage(checkpoint.TieredConfig{Cold: under})
		st = tier
	} else {
		st = checkpoint.NewMemoryStorage()
	}
	if tr != nil {
		st = &tracedStorage{inner: st, tr: tr}
	}
	return st, tier, cold
}

// profiledPartition is the SPBC set-up path: a 2-step native run of the
// kernel, its communication profile, and the partition of that profile.
func profiledPartition(s *spec, t *setupTimes) ([]int, error) {
	start := time.Now()
	w, _, _, err := runNative(s, min(2, s.steps))
	if err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}
	prof := core.BuildProfile(w, s.perNode)
	t.profileBuild = time.Since(start)

	start = time.Now()
	clusterOf, err := clustering.Partition(prof, s.clusters, clustering.MinTotalLogged)
	if err != nil {
		return nil, err
	}
	if err := clustering.Validate(prof, clusterOf, s.clusters, s.clusters < prof.Ranks); err != nil {
		return nil, err
	}
	t.partition = time.Since(start)
	return clusterOf, nil
}

// build is set-up: everything a run needs before Engine.Run.
func build(s *spec, faults []core.Fault, tr *tracer) (*built, error) {
	b := &built{}
	b.storage, b.tier, b.cold = newStorage(s, nil, tr)
	cfg := core.Config{Interval: s.interval, Steps: s.steps, Storage: b.storage, Faults: faults}
	if tr != nil {
		cfg.Faultpoints = tr.hooks()
	}
	switch s.proto {
	case runner.ProtocolCoordinated:
		cfg.Policy = core.NewCoordinatedProtocol(s.ranks)
	case runner.ProtocolFullLog:
		cfg.Policy = core.NewFullLogProtocol(s.ranks)
	default:
		clusterOf, err := profiledPartition(s, &b.times)
		if err != nil {
			return nil, err
		}
		if s.proto == runner.ProtocolSPBC {
			cfg.Policy = core.NewSPBCProtocol(clusterOf)
		} else {
			cfg.Adaptive = &core.AdaptiveConfig{Seed: clusterOf, RanksPerNode: s.perNode}
		}
	}
	var err error
	start := time.Now()
	if b.world, err = mpi.NewWorld(s.ranks, s.cost()); err != nil {
		return nil, err
	}
	b.times.worldBuild = time.Since(start)
	start = time.Now()
	if b.eng, err = core.NewEngine(b.world, cfg); err != nil {
		return nil, err
	}
	b.times.engineBuild = time.Since(start)
	return b, nil
}
