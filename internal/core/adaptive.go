package core

import (
	"fmt"
	"sync"

	"repro/internal/clustering"
	"repro/internal/mpi"
)

// Adaptive epoch-based clustering.
//
// The paper chooses SPBC's recovery clusters *from* the communication
// pattern; a static reproduction freezes that choice before the run starts.
// The adaptive controller keeps the choice live: at every checkpoint-wave
// boundary it rebuilds the communication profile of the window since the
// previous boundary (from per-(src, dst) byte counters fed by the
// Protocol.OnSend path, filtered to application point-to-point traffic on
// the world communicator — the appTraffic filter of the determinism
// checkers), partitions it, and — when the projected logged-volume saving
// clears the hysteresis thresholds — opens a new policy epoch whose first
// wave is the new partition's recovery line. The filter is load-bearing:
// counting protocol traffic would let each repartition's own CommSplit
// allgather (neighbor-patterned, on the world communicator) dominate the
// next window and flap the partition straight back.
//
// Coordination is out-of-band and wall-clock only (like the recovery
// rendezvous, it costs no virtual time): every rank entering a wave boundary
// first parks at the controller's decision gate. When the last rank arrives,
// the whole world is quiescent at the same iteration boundary — every
// sender-side counter is stable and deterministic — and the arriving rank
// computes the decision for the boundary once, under the controller lock.
// Rolled-back ranks that re-execute a boundary find its decision recorded
// and pass through without waiting, so recovery re-execution (in which the
// surviving clusters do not participate) can never deadlock on the gate.
// Re-execution also never re-crosses an epoch switch: the wave that opens an
// epoch is forced durable before any rank advances past it, so every
// rollback restores a wave of the current epoch.

// AdaptiveConfig parameterizes adaptive epoch-based clustering.
type AdaptiveConfig struct {
	// Seed is the epoch-0 cluster assignment (one entry per rank), typically
	// the static profiling-pre-run partition: a stable workload then never
	// leaves epoch 0 and adaptive SPBC degenerates to static SPBC.
	Seed []int
	// RanksPerNode is the physical placement used by repartitioning (ranks
	// sharing a node always share a cluster). Defaults to 1.
	RanksPerNode int
	// Objective is the clustering objective of the repartitioner.
	Objective clustering.Objective
	// Hysteresis is the migration-cost threshold: a candidate partition is
	// adopted only when its projected logged-byte saving over the last
	// window clears it. The zero value selects clustering defaults.
	Hysteresis clustering.Hysteresis
}

// validate checks the adaptive configuration.
func (a *AdaptiveConfig) validate() error {
	if len(a.Seed) == 0 {
		return fmt.Errorf("core: adaptive clustering needs a seed partition")
	}
	if a.RanksPerNode < 0 {
		return fmt.Errorf("core: negative ranks per node %d", a.RanksPerNode)
	}
	return nil
}

// EpochInfo is the per-epoch report of an adaptive run: when the epoch
// opened, its partition, and the traffic logged while it was active.
type EpochInfo struct {
	Epoch int `json:"epoch"`
	// FromIteration is the wave boundary that opened the epoch.
	FromIteration int   `json:"from_iteration"`
	ClusterOf     []int `json:"cluster_of"`
	// LoggedBytes / SentBytes cover the interval during which the epoch was
	// active; LoggedFraction is their ratio.
	LoggedBytes    uint64  `json:"logged_bytes"`
	SentBytes      uint64  `json:"sent_bytes"`
	LoggedFraction float64 `json:"logged_fraction"`
}

// liveProfile is the online per-(src, dst) application-byte counter set
// behind adaptive repartitioning, stored sparsely: each rank's row is a
// destination→bytes map holding only the peers the rank has actually sent
// to, so the controller costs O(nnz) memory instead of an n×n matrix
// (32 GiB at 65k ranks). Each row is written only by the owning rank's
// goroutine (from the Protocol.OnSend hook); the decision step reads the
// whole structure under the controller mutex while every rank is parked at
// the boundary, which is also what establishes the happens-before edge
// from the rows' last writes.
type liveProfile struct {
	rows []map[int]uint64
}

func newLiveProfile(size int) *liveProfile {
	return &liveProfile{rows: make([]map[int]uint64, size)}
}

// add accumulates one application send. Called from the owning rank's
// goroutine only.
func (lp *liveProfile) add(src, dst int, bytes uint64) {
	if dst < 0 || dst >= len(lp.rows) {
		return
	}
	m := lp.rows[src]
	if m == nil {
		m = make(map[int]uint64, 8)
		lp.rows[src] = m
	}
	m[dst] += bytes
}

// adaptive is the engine's repartitioning controller.
type adaptive struct {
	e    *Engine
	cfg  AdaptiveConfig
	k    int
	prof *liveProfile

	mu      sync.Mutex
	cond    *sync.Cond
	aborted bool
	err     error
	// arrivals tracks which ranks reached a boundary not yet decided;
	// decided maps a boundary iteration to the view active from it on.
	arrivals map[int]*arrival
	decided  map[int]*EpochView
	// lastCum is the cumulative per-(src,dst) byte snapshot (sparse rows)
	// at the previous boundary; the decision window is the delta against it.
	lastCum []map[int]uint64
	// history is the per-epoch report and the record of every epoch's
	// partition; the last entry is the open epoch, whose traffic counters
	// are filled when it closes. openLogged/openSent are the cumulative
	// totals at the open epoch's first boundary.
	history    []EpochInfo
	openLogged uint64
	openSent   uint64
	finalized  bool
}

type arrival struct {
	seen  []bool
	count int
}

func newAdaptive(e *Engine, cfg AdaptiveConfig, seedView *EpochView) *adaptive {
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = 1
	}
	a := &adaptive{
		e:        e,
		cfg:      cfg,
		k:        seedView.Groups(),
		prof:     newLiveProfile(e.world.Size()),
		arrivals: make(map[int]*arrival),
		decided:  make(map[int]*EpochView),
		history: []EpochInfo{{
			Epoch:         0,
			FromIteration: 0,
			ClusterOf:     append([]int(nil), seedView.GroupOf()...),
		}},
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// await is the decision gate: it blocks until the epoch decision for the
// wave boundary at iter exists and returns the view active from the boundary
// on. The first execution of a boundary parks every rank here; re-executed
// boundaries return the recorded decision immediately.
func (a *adaptive) await(rank, iter int) (*EpochView, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if v := a.decided[iter]; v != nil {
		return v, nil
	}
	if a.aborted {
		return nil, a.errLocked()
	}
	st := a.arrivals[iter]
	if st == nil {
		st = &arrival{seen: make([]bool, a.e.world.Size())}
		a.arrivals[iter] = st
	}
	if !st.seen[rank] {
		st.seen[rank] = true
		st.count++
	}
	if st.count == a.e.world.Size() {
		v, err := a.decideLocked(iter)
		if err != nil {
			a.err = err
			a.aborted = true
			a.cond.Broadcast()
			return nil, err
		}
		a.decided[iter] = v
		delete(a.arrivals, iter)
		a.cond.Broadcast()
		return v, nil
	}
	for a.decided[iter] == nil && !a.aborted {
		a.cond.Wait()
	}
	if v := a.decided[iter]; v != nil {
		return v, nil
	}
	return nil, a.errLocked()
}

func (a *adaptive) errLocked() error {
	if a.err != nil {
		return a.err
	}
	return fmt.Errorf("core: run aborted: %w", mpi.ErrWorldStopped)
}

// decideLocked computes the epoch decision for one boundary. It runs in the
// last-arriving rank's goroutine while every other rank is parked at the
// gate, so the per-destination counters it reads are stable — the same
// counters on every run of the same execution, which keeps the epoch
// trajectory deterministic. Caller holds a.mu.
func (a *adaptive) decideLocked(iter int) (*EpochView, error) {
	cur := a.e.currentView()
	cum := a.cumMatrix()
	prev := a.lastCum
	a.lastCum = cum
	if iter == 0 || prev == nil {
		return cur, nil // nothing before the first boundary to profile
	}
	win := clustering.WindowProfileSparse(cum, prev, a.cfg.RanksPerNode)
	if win.TotalBytes() == 0 {
		return cur, nil
	}
	cand, err := clustering.Partition(win, a.k, a.cfg.Objective)
	if err != nil {
		return cur, nil // degenerate window; keep the current partition
	}
	if clustering.SameAssignment(cand, cur.GroupOf()) {
		return cur, nil
	}
	if !clustering.ShouldRepartition(win, cur.GroupOf(), cand, a.cfg.Hysteresis) {
		return cur, nil
	}
	epoch := cur.Epoch() + 1
	v, err := NewEpochView(epoch, cand)
	if err != nil {
		return nil, fmt.Errorf("core: adaptive repartition at iteration %d: %w", iter, err)
	}
	// All ranks are parked at the decision gate, so this single goroutine can
	// intern the new epoch's cluster comms deterministically into the view;
	// the switching ranks then read them from it, with no world-sized
	// CommSplit.
	if err := internClusterComms(a.e.world, v); err != nil {
		return nil, fmt.Errorf("core: adaptive repartition at iteration %d: %w", iter, err)
	}
	logged, sent := a.cumTotals()
	a.closeOpenEpochLocked(logged, sent)
	a.history = append(a.history, EpochInfo{
		Epoch:         epoch,
		FromIteration: iter,
		ClusterOf:     append([]int(nil), v.GroupOf()...),
	})
	a.openLogged, a.openSent = logged, sent
	a.e.setView(v)
	// Every rank is parked at the decision gate here, so a hook that calls
	// Engine.ScheduleFault pins its fault before any rank can pass the
	// boundary — the epoch-switch scheduling window is race-free.
	a.e.firePoint(PointEpochSwitch, PointInfo{
		Rank: -1, Cluster: -1, Iteration: iter, Wave: -1, Epoch: epoch,
	})
	return v, nil
}

// cumMatrix snapshots the cumulative per-(src, dst) application-byte
// counters of every rank, sparsely: only rows and pairs with traffic are
// copied. Called while the world is quiescent at a boundary, so the copy
// is stable and deterministic.
func (a *adaptive) cumMatrix() []map[int]uint64 {
	size := a.e.world.Size()
	out := make([]map[int]uint64, size)
	for r := 0; r < size; r++ {
		row := a.prof.rows[r]
		if row == nil {
			continue
		}
		cp := make(map[int]uint64, len(row))
		for dst, b := range row {
			cp[dst] = b
		}
		out[r] = cp
	}
	return out
}

// cumTotals returns the cumulative logged and sent byte totals of the run.
func (a *adaptive) cumTotals() (logged, sent uint64) {
	for r := 0; r < a.e.world.Size(); r++ {
		sent += a.e.world.Proc(r).Stats.Snapshot().BytesSent
		logged += a.e.stores[r].CumulativeBytes()
	}
	return logged, sent
}

// closeOpenEpochLocked fills the open epoch's traffic counters with the
// delta since it opened. Caller holds a.mu.
func (a *adaptive) closeOpenEpochLocked(logged, sent uint64) {
	open := &a.history[len(a.history)-1]
	open.LoggedBytes = logged - a.openLogged
	open.SentBytes = sent - a.openSent
	if open.SentBytes > 0 {
		open.LoggedFraction = float64(open.LoggedBytes) / float64(open.SentBytes)
	}
}

// finalize closes the last epoch's accounting at the end of the run.
func (a *adaptive) finalize() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finalized {
		return
	}
	a.finalized = true
	logged, sent := a.cumTotals()
	a.closeOpenEpochLocked(logged, sent)
}

// historyCopy returns a deep copy of the per-epoch report.
func (a *adaptive) historyCopy() []EpochInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]EpochInfo, len(a.history))
	for i, h := range a.history {
		h.ClusterOf = append([]int(nil), h.ClusterOf...)
		out[i] = h
	}
	return out
}

// abort releases every rank parked at the decision gate.
func (a *adaptive) abort() {
	a.mu.Lock()
	a.aborted = true
	a.cond.Broadcast()
	a.mu.Unlock()
}
