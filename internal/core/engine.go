package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/clustering"
	"repro/internal/logstore"
	"repro/internal/model"
	"repro/internal/mpi"
)

// Fault schedules the failure of one rank at the start of an iteration. The
// failed rank loses its in-memory state (application state, channel state and
// sender-based log) and its whole recovery group rolls back to the group's
// latest coordinated checkpoint; other groups keep running. Under
// NewSPBCProtocol the group is the rank's cluster, under
// NewCoordinatedProtocol it is the whole world, under NewFullLogProtocol it
// is the failed rank alone.
//
// Failures are injected at iteration boundaries: applications are quiescent
// there (no pending requests), which is also where the paper's protocol takes
// checkpoints and where recovery restarts execution.
type Fault struct {
	Rank      int `json:"rank"`
	Iteration int `json:"iteration"`
}

// Config parameterizes an Engine run.
type Config struct {
	// Policy selects the fault-tolerance protocol: the partition into
	// recovery groups that decides who checkpoints together, what gets logged
	// (every inter-group message) and who rolls back. Exactly one of Policy
	// and Adaptive must be set.
	Policy *Policy
	// Adaptive selects adaptive epoch-based clustering: SPBC seeded with
	// Adaptive.Seed whose partition is re-evaluated from the live
	// communication profile at every checkpoint-wave boundary. Requires a
	// positive Interval (epochs open only at wave boundaries).
	Adaptive *AdaptiveConfig
	// Interval is the checkpoint period in iterations: every recovery group
	// takes a coordinated checkpoint at each iteration boundary that is a
	// multiple of Interval (including iteration 0). Zero disables
	// checkpointing, which is only legal without faults.
	Interval int
	// Steps is the number of application iterations to run.
	Steps int
	// Storage receives the checkpoints. It must implement
	// checkpoint.WaveStorage: encoded images are staged in parallel and
	// whole waves publish atomically.
	Storage checkpoint.Storage
	// Faults is the failure plan. Iterations must lie in [0, Steps), and a
	// rank may fail at most once per iteration boundary.
	Faults []Fault
	// Faultpoints, if set, receives the engine's lifecycle fault points
	// (capture, commit drain, recovery, epoch switches): the chaos
	// instrumentation surface. See FaultPoint for the catalog and the
	// blocking rules hooks must respect.
	Faultpoints *FaultRegistry
}

// seed returns the epoch-0 partition of the configured policy.
func (c *Config) seed() ([]int, error) {
	if (c.Policy == nil) == (c.Adaptive == nil) {
		return nil, fmt.Errorf("core: set exactly one of Policy and Adaptive")
	}
	if c.Policy != nil {
		return c.Policy.groupOf, nil
	}
	if err := c.Adaptive.validate(); err != nil {
		return nil, err
	}
	if c.Interval <= 0 {
		return nil, fmt.Errorf("core: adaptive clustering needs a positive checkpoint interval (epochs open at wave boundaries)")
	}
	return c.Adaptive.Seed, nil
}

// resolve validates the configuration against a world size and returns the
// validated epoch-0 view and the two-phase checkpoint storage (nil without
// checkpointing).
func (c *Config) resolve(size int) (*EpochView, checkpoint.WaveStorage, error) {
	if c.Steps <= 0 {
		return nil, nil, fmt.Errorf("core: steps must be positive, got %d", c.Steps)
	}
	seed, err := c.seed()
	if err != nil {
		return nil, nil, err
	}
	if len(seed) != size {
		return nil, nil, fmt.Errorf("core: policy assigns %d ranks, world has %d", len(seed), size)
	}
	view, err := NewEpochView(0, seed)
	if err != nil {
		return nil, nil, err
	}
	if c.Interval < 0 {
		return nil, nil, fmt.Errorf("core: checkpoint interval must be non-negative, got %d", c.Interval)
	}
	if len(c.Faults) > 0 {
		if c.Interval == 0 {
			return nil, nil, fmt.Errorf("core: faults require a positive checkpoint interval")
		}
		if c.Storage == nil {
			return nil, nil, fmt.Errorf("core: faults require checkpoint storage")
		}
	}
	if c.Interval > 0 && c.Storage == nil {
		return nil, nil, fmt.Errorf("core: checkpointing requires storage")
	}
	ws, ok := c.Storage.(checkpoint.WaveStorage)
	if c.Storage != nil && !ok {
		return nil, nil, fmt.Errorf("core: storage %T does not implement checkpoint.WaveStorage", c.Storage)
	}
	seen := make(map[Fault]bool, len(c.Faults))
	for _, f := range c.Faults {
		if f.Rank < 0 || f.Rank >= size {
			return nil, nil, fmt.Errorf("core: fault rank %d out of range [0,%d)", f.Rank, size)
		}
		if f.Iteration < 0 || f.Iteration >= c.Steps {
			return nil, nil, fmt.Errorf("core: fault iteration %d out of range [0,%d)", f.Iteration, c.Steps)
		}
		if seen[f] {
			return nil, nil, fmt.Errorf("core: fault plan schedules rank %d twice at iteration %d: a rank can fail at most once per iteration boundary (merge the duplicate or move it to a later iteration)", f.Rank, f.Iteration)
		}
		seen[f] = true
	}
	return view, ws, nil
}

// Metrics accumulates the engine-level counters of one run. They complement
// the per-rank mpi.ProcStats and the log stores' volume counters.
type Metrics struct {
	// CheckpointSaves / CheckpointBytes count per-rank checkpoints durably
	// published (content bytes, not encoded-image bytes).
	CheckpointSaves     int    `json:"checkpoint_saves"`
	CheckpointBytes     uint64 `json:"checkpoint_bytes"`
	TruncatedLogRecords int    `json:"truncated_log_records"`
	RecoveryEvents      int    `json:"recovery_events"`
	RolledBackRanks     []int  `json:"rolled_back_ranks"`
	RestoredCheckpoints int    `json:"restored_checkpoints"`
	ReplayedRecords     int    `json:"replayed_records"`
	ReplayedBytes       uint64 `json:"replayed_bytes"`
	// CheckpointWaves counts cluster waves durably committed;
	// CheckpointWavesCanceled counts waves a fault interrupted mid-drain
	// (recovery rolled back to the last durable wave instead).
	CheckpointWaves         int `json:"checkpoint_waves"`
	CheckpointWavesCanceled int `json:"checkpoint_waves_canceled"`
	// CheckpointCaptureNs is the total real time ranks spent capturing
	// checkpoints inside the wave barrier (the in-barrier stall the two-phase
	// pipeline minimizes); CheckpointCommitNs is the total real capture→
	// durable drain latency across waves. Both are wall-clock, not virtual.
	CheckpointCaptureNs int64 `json:"checkpoint_capture_ns"`
	CheckpointCommitNs  int64 `json:"checkpoint_commit_ns"`
	// Epochs is the number of policy epochs the run ended with (1 for a
	// static policy); EpochSwitches counts the wave-aligned repartitions an
	// adaptive run adopted (Epochs - 1).
	Epochs        int `json:"epochs"`
	EpochSwitches int `json:"epoch_switches"`
	// Delta-pipeline volume accounting, populated only when the storage
	// stack advertises a DeltaPolicy (omitted otherwise, so reports of
	// non-delta runs are unchanged). BytesStaged is what was actually staged
	// (codec-v3 frames); BytesFullEquiv is what the same waves would have
	// cost as plain full images; BytesDeduped is the difference.
	BytesStaged    uint64 `json:"checkpoint_bytes_staged,omitempty"`
	BytesFullEquiv uint64 `json:"checkpoint_bytes_full_equiv,omitempty"`
	BytesDeduped   uint64 `json:"checkpoint_bytes_deduped,omitempty"`
	DeltaImages    int    `json:"checkpoint_delta_images,omitempty"`
	FullImages     int    `json:"checkpoint_full_images,omitempty"`
	// DeltaRatio is BytesStaged / BytesFullEquiv: < 1 means the delta
	// pipeline beat the full-image floor.
	DeltaRatio float64 `json:"checkpoint_delta_ratio,omitempty"`
}

// counters is the lock-free accumulator behind Metrics: checkpoint waves
// must not serialize on an engine-wide mutex (satellite of the two-phase
// pipeline), and the committer updates them from background goroutines while
// ranks run.
type counters struct {
	saves           atomic.Int64
	savedBytes      atomic.Uint64
	truncated       atomic.Int64
	recoveryEvents  atomic.Int64
	restored        atomic.Int64
	replayedRecords atomic.Int64
	replayedBytes   atomic.Uint64
	waves           atomic.Int64
	wavesCanceled   atomic.Int64
	captureNs       atomic.Int64
	commitNs        atomic.Int64
	bytesStaged     atomic.Uint64
	bytesFull       atomic.Uint64
	deltaImages     atomic.Int64
	fullImages      atomic.Int64
}

// Engine composes a fault-tolerance Policy, the MPI runtime, checkpoint
// storage and the per-rank log stores into a full run: it drives one
// model.App instance per rank behind a model.Process facade and owns
// checkpointing, failure injection and recovery. The mechanism is shared
// across policies; the only protocol-specific input is the partition, held
// as one EpochView per epoch. Create it with NewEngine and drive it with Run.
type Engine struct {
	world     *mpi.World
	cfg       Config
	protos    []*SPBC
	stores    []*logstore.Store
	bar       *rendezvous
	switchBar *rendezvous // epoch-switch rendezvous between flush and first new-epoch capture
	committer *committer
	adapt     *adaptive // nil for static policies

	// eventMu guards the fault-event schedule and the ArmFault window (see
	// faults.go). events only grows; processed entries are immutable.
	eventMu   sync.Mutex
	events    []*faultEvent
	arming    *faultEvent // event whose recovery-start hook is running
	armingSet rollbackSet // rollback set of the arming event
	armed     int         // chained events inserted by the current hook
	// freeBoundary is the lowest boundary no rank has checked the schedule
	// at yet; ScheduleFault places no event below it.
	freeBoundary int

	// viewMu guards the current epoch view. It is written only while every
	// rank is parked at the wave boundary that opens the epoch (the adaptive
	// decision point), and read by the recovery path and the report builders.
	viewMu sync.Mutex
	view   *EpochView

	counters counters
	verify   []float64 // per-rank slot, written only by the owning rank

	mu     sync.Mutex // guards rolled and the events' failTime fields
	rolled map[int]bool
}

// NewEngine builds an engine over an existing world. The world must be fresh
// (no communication yet): the engine attaches a runtime protocol instance to
// every rank.
func NewEngine(w *mpi.World, cfg Config) (*Engine, error) {
	view, ws, err := cfg.resolve(w.Size())
	if err != nil {
		return nil, err
	}
	e := &Engine{
		world:     w,
		cfg:       cfg,
		view:      view,
		protos:    make([]*SPBC, w.Size()),
		stores:    make([]*logstore.Store, w.Size()),
		bar:       newRendezvous(w.Size()),
		switchBar: newRendezvous(w.Size()),
		events:    buildEvents(cfg.Faults),
		rolled:    make(map[int]bool),
		verify:    make([]float64, w.Size()),
	}
	// Intern the epoch's cluster communicators once, in group order, from
	// this single goroutine: every rank then reads its comm from the view
	// instead of running a world-sized membership allgather (O(world²) traffic
	// at init), and comm ids are deterministic across runs.
	if err := internClusterComms(w, view); err != nil {
		return nil, err
	}
	// Per-rank stores and protocol instances are independent; build them in
	// parallel chunks — at 65k ranks this serial loop used to dominate
	// engine setup in the scale sweep.
	mpi.ParallelFor(w.Size(), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			e.stores[r] = logstore.New()
			e.protos[r] = newSPBCWithView(r, view, w.Cost(), e.stores[r])
		}
	})
	if ws != nil {
		e.committer = newCommitter(e, ws)
	}
	if cfg.Adaptive != nil {
		e.adapt = newAdaptive(e, *cfg.Adaptive, view)
		for r := 0; r < w.Size(); r++ {
			e.protos[r].setProfile(e.adapt.prof)
		}
	}
	return e, nil
}

// World returns the underlying world.
func (e *Engine) World() *mpi.World { return e.world }

// currentView returns the view of the latest opened epoch.
func (e *Engine) currentView() *EpochView {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	return e.view
}

// setView installs the view of a newly opened epoch. Called by the adaptive
// controller while every rank is parked at the opening wave boundary.
func (e *Engine) setView(v *EpochView) {
	e.viewMu.Lock()
	e.view = v
	e.viewMu.Unlock()
}

// ClusterOf returns the recovery-group assignment of the current epoch.
func (e *Engine) ClusterOf() []int {
	return append([]int(nil), e.currentView().GroupOf()...)
}

// Clusters returns the number of recovery groups of the current epoch.
func (e *Engine) Clusters() int { return e.currentView().Groups() }

// Epochs returns the number of policy epochs opened so far (1 for static
// policies).
func (e *Engine) Epochs() int { return e.currentView().Epoch() + 1 }

// EpochHistory returns the per-epoch report of an adaptive run (nil for
// static policies). Call it after Run returns.
func (e *Engine) EpochHistory() []EpochInfo {
	if e.adapt == nil {
		return nil
	}
	return e.adapt.historyCopy()
}

// Store returns the sender-based log store of a rank.
func (e *Engine) Store(rank int) *logstore.Store { return e.stores[rank] }

// Metrics returns a copy of the engine counters. It is safe to call while
// the run is in flight (the counters are atomics); totals are final once Run
// has returned.
func (e *Engine) Metrics() Metrics {
	c := &e.counters
	m := Metrics{
		CheckpointSaves:         int(c.saves.Load()),
		CheckpointBytes:         c.savedBytes.Load(),
		TruncatedLogRecords:     int(c.truncated.Load()),
		RecoveryEvents:          int(c.recoveryEvents.Load()),
		RestoredCheckpoints:     int(c.restored.Load()),
		ReplayedRecords:         int(c.replayedRecords.Load()),
		ReplayedBytes:           c.replayedBytes.Load(),
		CheckpointWaves:         int(c.waves.Load()),
		CheckpointWavesCanceled: int(c.wavesCanceled.Load()),
		CheckpointCaptureNs:     c.captureNs.Load(),
		CheckpointCommitNs:      c.commitNs.Load(),
		Epochs:                  e.Epochs(),
	}
	m.EpochSwitches = m.Epochs - 1
	m.BytesStaged = c.bytesStaged.Load()
	m.BytesFullEquiv = c.bytesFull.Load()
	m.DeltaImages = int(c.deltaImages.Load())
	m.FullImages = int(c.fullImages.Load())
	if m.BytesFullEquiv > 0 {
		m.BytesDeduped = m.BytesFullEquiv - m.BytesStaged
		m.DeltaRatio = float64(m.BytesStaged) / float64(m.BytesFullEquiv)
	}
	e.mu.Lock()
	for r := range e.rolled {
		m.RolledBackRanks = append(m.RolledBackRanks, r)
	}
	e.mu.Unlock()
	sort.Ints(m.RolledBackRanks)
	return m
}

// VerifyValues returns the per-rank application digests collected at the end
// of the run. Call it after Run returns.
func (e *Engine) VerifyValues() []float64 { return append([]float64(nil), e.verify...) }

// LoggedBytesByCluster sums the cumulative sender-side log volume per
// recovery group of the current epoch.
func (e *Engine) LoggedBytesByCluster() []uint64 {
	v := e.currentView()
	out := make([]uint64, v.Groups())
	for r, s := range e.stores {
		out[v.Group(r)] += s.CumulativeBytes()
	}
	return out
}

// abortRun releases every rank parked on engine-internal synchronization —
// the recovery rendezvous, the adaptive decision gate and the committer's
// blocking waits (flush, first-durable-wave) — so a failing rank does not
// leave the others blocked forever.
func (e *Engine) abortRun() {
	e.bar.abort()
	e.switchBar.abort()
	if e.adapt != nil {
		e.adapt.abort()
	}
	if e.committer != nil {
		e.committer.abort()
	}
}

// internClusterComms interns every recovery group's communicator for one
// epoch, in group order, and stores them in the view. Must run on a single
// goroutine before the view is published (engine init, or the adaptive
// decision point while all ranks are parked).
func internClusterComms(w *mpi.World, view *EpochView) error {
	comms := make([]*mpi.Comm, view.Groups())
	for g := range comms {
		c, err := w.InternComm(view.Members(g))
		if err != nil {
			return fmt.Errorf("core: epoch %d group %d communicator: %w", view.Epoch(), g, err)
		}
		comms[g] = c
	}
	view.comms = comms
	return nil
}

// Run executes the application on every rank of the world, with
// checkpointing, failure injection and recovery as configured. It returns the
// first per-rank error. Before returning, Run drains the background
// checkpoint committer, so every captured wave is durable (and the metrics
// final) by the time the caller regains control.
func (e *Engine) Run(factory model.AppFactory) error {
	err := e.world.Run(func(p *mpi.Proc) error {
		defer func() {
			if r := recover(); r != nil {
				e.abortRun() // free ranks parked at a fault rendezvous
				panic(r)
			}
		}()
		if err := e.runRank(p, factory()); err != nil {
			e.abortRun()
			return err
		}
		return nil
	})
	if e.committer != nil {
		if derr := e.committer.drain(); err == nil && derr != nil {
			err = derr
		}
	}
	if e.adapt != nil {
		e.adapt.finalize()
	}
	return err
}

// rankCtx is the per-rank execution state that varies with the policy epoch:
// the active view, the rank's cluster and intra-cluster communicator under
// it, and the cluster's wave counter.
type rankCtx struct {
	view    *EpochView
	cluster int
	comm    *mpi.Comm
	wave    int
}

// runRank is the per-rank driver: init, the iteration loop with checkpoint
// and fault handling, and the final verification.
func (e *Engine) runRank(p *mpi.Proc, app model.App) error {
	rank := p.Rank()
	p.SetProtocol(e.protos[rank])
	proc := &process{NativeProcess: model.NativeProcess{P: p}, proto: e.protos[rank]}
	if err := app.Init(proc); err != nil {
		return fmt.Errorf("core: rank %d: init: %w", rank, err)
	}
	rc := &rankCtx{view: e.protos[rank].View()}
	rc.cluster = rc.view.Group(rank)
	rc.comm = rc.view.Comm(rc.cluster)

	cursor := 0 // schedule events this rank has processed (see faults.go)
	rejoinAt := -1
	reenter := false // next checkpoint re-enters a restored wave (no entry barrier)
	for iter := 0; iter < e.cfg.Steps; {
		if rejoinAt == iter {
			// Re-execution has reached the failure point: recovery is over.
			e.protos[rank].endRecovery()
			rejoinAt = -1
			e.firePoint(PointRecoveryEnd, PointInfo{
				Rank: rank, Cluster: rc.cluster, Iteration: iter, Wave: -1, Epoch: rc.view.Epoch(),
			})
		}
		if e.cfg.Interval > 0 && iter%e.cfg.Interval == 0 {
			if err := e.checkpointRank(p, app, rc, iter, reenter); err != nil {
				return err
			}
			reenter = false
		}
		// Drain every schedule event due at this boundary before stepping:
		// an event's recovery may chain further events (ArmFault), and a
		// bystander rank must flow straight from one rendezvous into the
		// next — stepping in between could block it mid-iteration on a peer
		// already parked at the chained event.
		rolledBack := false
		for {
			ev := e.nextDueEvent(cursor, rank, iter)
			if ev == nil {
				break
			}
			cursor++
			resume, rb, err := e.handleFaultEvent(p, app, ev, iter)
			if err != nil {
				return err
			}
			if rb {
				// A rank rolled back while already recovering keeps the
				// outermost rejoin point: up to the original failure its
				// re-sends may still be messages a peer already holds.
				if iter > rejoinAt {
					rejoinAt = iter
				}
				iter = resume
				// The restored checkpoint was captured between the wave's
				// entry and exit barriers, so re-execution resumes from that
				// mid-wave point: the checkpoint at the resume boundary must
				// skip the entry barrier (recovery's rendezvous already
				// quiesced every member) and run capture + exit barrier only.
				// Re-running both barriers would insert one extra collective
				// op and shift every later per-channel sequence number off
				// the original execution's numbering, breaking the
				// bit-identical replay the protocol depends on.
				reenter = true
				rolledBack = true
				break
			}
		}
		if rolledBack {
			continue
		}
		if err := app.Step(iter); err != nil {
			return fmt.Errorf("core: rank %d: step %d: %w", rank, iter, err)
		}
		iter++
	}
	v, err := app.Verify()
	if err != nil {
		return fmt.Errorf("core: rank %d: verify: %w", rank, err)
	}
	e.verify[rank] = v // per-rank slot; published to the caller by Run's join
	return nil
}

// checkpointRank takes one coordinated checkpoint of the rank's cluster
// (Algorithm 1 lines 13-15): an intra-cluster barrier brings every member to
// the same iteration boundary with quiescent channels, each member *captures*
// (application state, channel state, logs) — a retain-only, zero-copy
// snapshot, so the in-barrier stall is O(metadata) — and hands the capture to
// the background committer, which encodes and persists the wave off the
// critical path and garbage-collects the remote log records once the wave is
// durable. The exit barrier keeps members from racing ahead and sending
// intra-cluster messages into a member that has not captured yet (which would
// put an orphan message across the cut).
//
// Under adaptive clustering the boundary is also the only point where a new
// policy epoch may open. All ranks first meet at the adaptive decision gate
// (out-of-band, no virtual time) and learn the epoch active from this
// boundary on. A rank whose epoch is older than the decision switches: it
// drains the committer (old-epoch waves become durable and their remote logs
// are GC'd before the cluster numbering changes), meets the world at the
// switch rendezvous, reads the new cluster communicator from the view
// (interned by the decision rank), and installs the new view; the wave it
// then captures is the first of the new epoch — the epoch's recovery line —
// and is forced durable before the exit barrier releases anyone, so recovery
// after this point always restores a wave of the current epoch.
func (e *Engine) checkpointRank(p *mpi.Proc, app model.App, rc *rankCtx, iter int, reenter bool) error {
	rank := p.Rank()
	switched := false
	if e.adapt != nil {
		next, err := e.adapt.await(rank, iter)
		if err != nil {
			return fmt.Errorf("core: rank %d: adaptive decision: %w", rank, err)
		}
		if next.Epoch() > rc.view.Epoch() {
			// Old-epoch waves must be fully durable before any wave is keyed
			// by the new epoch's cluster ids: per-cluster commit FIFOs and
			// the per-rank latest-checkpoint invariant both assume one
			// numbering at a time.
			if err := e.committer.flush(); err != nil {
				return fmt.Errorf("core: rank %d: drain before epoch %d: %w", rank, next.Epoch(), err)
			}
			// World rendezvous between the flush and the first new-epoch
			// capture: flush waits for *every* cluster's waves, so a rank
			// submitting a new-epoch partial wave before some other rank has
			// flushed would deadlock that rank's flush. The new-epoch comms
			// are derived locally from the view (interned by the decision
			// rank while everyone was parked), with no world collective to
			// act as this barrier, so the rendezvous is explicit. Every rank
			// crosses the switch boundary exactly once — re-execution never
			// re-crosses an epoch switch — so generations stay aligned.
			if err := e.switchBar.await(); err != nil {
				return fmt.Errorf("core: rank %d: epoch %d switch rendezvous: %w", rank, next.Epoch(), err)
			}
			rc.view = next
			rc.cluster = next.Group(rank)
			rc.comm = next.Comm(rc.cluster)
			e.protos[rank].setView(next)
			switched = true
		}
	}
	// A post-rollback re-entry resumes from the restored wave's mid-point
	// (the capture sits between the barriers), so the entry barrier already
	// happened before the restored state was captured and must not run again.
	if !reenter {
		if err := p.Barrier(rc.comm); err != nil {
			return fmt.Errorf("core: rank %d: checkpoint barrier: %w", rank, err)
		}
	}
	if err := e.committer.firstErr(); err != nil {
		return fmt.Errorf("core: rank %d: checkpoint commit: %w", rank, err)
	}
	e.firePoint(PointPreCapture, PointInfo{
		Rank: rank, Cluster: rc.cluster, Iteration: iter, Wave: rc.wave, Epoch: rc.view.Epoch(),
	})
	start := time.Now()
	state, err := app.Snapshot()
	if err != nil {
		return fmt.Errorf("core: rank %d: app snapshot: %w", rank, err)
	}
	snap, snapRefs, err := p.SnapshotChannelsShared()
	if err != nil {
		return fmt.Errorf("core: rank %d: channel snapshot: %w", rank, err)
	}
	proto, err := e.protos[rank].EncodeState()
	if err != nil {
		return fmt.Errorf("core: rank %d: %w", rank, err)
	}
	logs, logRefs := e.stores[rank].SnapshotShared()
	cp := &checkpoint.Checkpoint{
		Rank:      rank,
		Cluster:   rc.cluster,
		Iteration: iter,
		Epoch:     rc.view.Epoch(),
		Wave:      rc.wave,
		Time:      p.Now(),
		AppState:  state,
		Channels:  snap,
		Logs:      logs,
		Protocol:  proto,
	}
	cp.HoldShared(snapRefs)
	cp.HoldShared(logRefs)
	e.counters.captureNs.Add(time.Since(start).Nanoseconds())
	e.committer.submit(rc.cluster, rc.wave, rc.view.GroupSize(rc.cluster), cp)
	e.firePoint(PointPostCapture, PointInfo{
		Rank: rank, Cluster: rc.cluster, Iteration: iter, Wave: rc.wave, Epoch: rc.view.Epoch(),
	})
	rc.wave++

	if switched {
		// The wave that opens an epoch is the epoch's recovery line: it must
		// be durable before any rank advances, so a fault behind it can
		// never force a rollback across the epoch boundary into the old
		// partition.
		if err := e.committer.flush(); err != nil {
			return fmt.Errorf("core: rank %d: commit epoch %d recovery line: %w", rank, rc.view.Epoch(), err)
		}
	}
	if err := p.Barrier(rc.comm); err != nil {
		return fmt.Errorf("core: rank %d: checkpoint barrier: %w", rank, err)
	}
	return nil
}

// gcLogsWave truncates, on every remote sender, the log records that a
// durably committed checkpoint wave no longer needs: a message delivered
// before a member's checkpoint is covered by it and will never be replayed.
// Truncation covers every channel — including channels that are
// intra-cluster under the wave's epoch, which carry no new records but may
// still hold records logged under an older epoch (the log-drain half of an
// epoch switch). Called by the committer after the wave published; concurrent
// recovery replay is safe because replay reads strictly above the wave's
// coverage, and waves of other clusters truncate disjoint (per-destination)
// record sets.
func (e *Engine) gcLogsWave(w *wave) {
	dropped := 0
	for _, cp := range w.members {
		if cp.Channels == nil {
			continue
		}
		for key, st := range cp.Channels.In {
			dropped += e.stores[key.Peer].Truncate(cp.Rank, key.Comm, st.MaxSeqSeen)
		}
	}
	e.counters.truncated.Add(int64(dropped))
}

// process is the model.Process facade handed to applications: native MPI
// semantics plus the SPBC pattern API wired to the rank's protocol state.
type process struct {
	model.NativeProcess
	proto *SPBC
}

// DeclarePattern allocates a new communication-pattern identifier.
func (pp *process) DeclarePattern() uint32 { return pp.proto.DeclarePattern() }

// BeginIteration activates the pattern for the next iteration.
func (pp *process) BeginIteration(pattern uint32) { pp.proto.BeginIteration(pattern) }

// EndIteration restores the default pattern.
func (pp *process) EndIteration(pattern uint32) { pp.proto.EndIteration(pattern) }

var _ model.Process = (*process)(nil)

// rendezvous is the engine-internal world-wide barrier used to coordinate
// recovery (the out-of-band failure-detection path; it costs no virtual
// time). It is reusable across generations and abortable so that a failing
// rank does not leave the others parked forever.
type rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     uint64
	aborted bool
}

func newRendezvous(n int) *rendezvous {
	b := &rendezvous{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all n participants arrive (or the rendezvous is aborted).
func (b *rendezvous) await() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return fmt.Errorf("core: run aborted: %w", mpi.ErrWorldStopped)
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		return fmt.Errorf("core: run aborted: %w", mpi.ErrWorldStopped)
	}
	return nil
}

// abort permanently releases every waiter with an error.
func (b *rendezvous) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// BuildProfile aggregates per-rank, per-destination byte counters into a
// clustering profile. It is used by the runner's profiling pre-run.
func BuildProfile(w *mpi.World, ranksPerNode int) *clustering.Profile {
	prof := clustering.NewProfile(w.Size(), ranksPerNode)
	for r := 0; r < w.Size(); r++ {
		for dst, bytes := range w.Proc(r).Stats.PerDestinationBytes() {
			prof.Add(r, dst, bytes)
		}
	}
	return prof
}
