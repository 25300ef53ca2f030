package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
)

// The committer is the second half of the two-phase checkpoint pipeline.
//
// A checkpoint wave used to stall every member of a cluster, inside the
// barrier, for the full cost of deep-copying its sender log, gob-encoding
// the checkpoint and persisting it behind one storage mutex — the opposite
// of the paper's claim that SPBC's failure-free overhead reduces to the
// sender-side log copy. The engine now only *captures* under the barrier
// (retain-only snapshots, O(metadata)) and hands the wave to this background
// committer, which encodes and persists it off the critical path.
//
// The committer is *sharded by recovery group*: all bookkeeping (partial
// waves, commit queues, durable counts) lives in per-shard structures keyed
// by cluster-id modulo the shard count, each behind its own lock with its
// own dispatcher goroutine. The previous design held one world-global mutex
// and parked one goroutine per cluster forever — at 10k+ ranks under
// full-log (one cluster per rank) that is 10k parked goroutines and a single
// lock every rank's submit serializes on. Now:
//
//   - Waves of one cluster commit in capture order (stable storage never
//     regresses): a cluster's waves all hash to one shard, whose dispatcher
//     drains each cluster FIFO with at most one wave of a cluster in flight.
//   - Different shards drain in parallel; clusters sharing a shard
//     serialize with each other, which bounds background goroutines at the
//     shard count instead of the cluster count.
//   - Within a wave, the per-rank images are encoded and staged in parallel,
//     bounded by GOMAXPROCS (a coordinated wave at 10k+ ranks must not spawn
//     10k encode goroutines).
//   - A wave is *published* — made the latest checkpoint of all its members
//     — atomically under its shard's lock, so recovery can never observe a
//     half-saved wave (an inconsistent cut).
//   - Remote-log garbage collection for the wave runs only after the wave is
//     durably published: a fault that interrupts a draining wave rolls back
//     to the last durable wave, whose replay records are still in the
//     senders' logs (the paper's stable-storage semantics). The GC walk
//     itself is group-scoped: it touches only the channels of the wave's
//     members, never a world-sized structure.
//
// On a fault, recovery calls cancelClusters for the affected groups: every
// unpublished wave of those clusters is discarded (its buffers released, no
// GC), and if a cluster has no durable wave yet — a fault racing the very
// first commit — the call first waits for the oldest in-flight wave to
// publish, so rollback always finds a checkpoint. Re-execution re-captures
// the canceled boundaries deterministically.

// commitShards is the number of independent bookkeeping shards. Cluster ids
// map to shards by modulo; it bounds both background goroutines and lock
// contention independent of the cluster count.
const commitShards = 16

// wave accumulates the capture-form checkpoints of one (cluster, wave seq)
// checkpoint wave until every member has submitted, then moves through the
// cluster's commit queue. Cluster ids are those of the wave's policy epoch;
// an epoch switch flushes the committer before submitting under the new
// numbering, so waves of different epochs never coexist in the queues.
type wave struct {
	cluster  int
	seq      int // the cluster's wave counter (Checkpoint.Wave)
	expect   int
	members  []*checkpoint.Checkpoint
	captured time.Time // when the last member was captured
	// canceled and published are guarded by the owning shard's lock. A wave
	// is exactly one of: discarded (canceled before publish) or published.
	canceled  bool
	published bool
}

// commitShard is one bookkeeping shard: the clusters whose id hashes here,
// behind their own lock, drained by their own dispatcher goroutine.
type commitShard struct {
	mu   sync.Mutex
	cond *sync.Cond

	partial  map[int]*wave   // cluster -> wave still accumulating members
	queues   map[int][]*wave // cluster -> complete waves in capture order
	inflight map[int]*wave   // cluster -> wave the dispatcher is committing
	ready    []int           // clusters with queued waves, FIFO
	enq      map[int]bool    // cluster is in ready or inflight
	durable  map[int]int     // cluster -> published wave count
	started  bool            // dispatcher goroutine running
	closed   bool
}

// committer drains captured checkpoint waves to stable storage in the
// background.
type committer struct {
	e     *Engine
	ws    checkpoint.WaveStorage
	delta *deltaState // nil unless the storage stack advertises a DeltaPolicy

	shards [commitShards]*commitShard
	wg     sync.WaitGroup

	// stateMu guards the run-global flags. Lock order: a goroutine may take
	// stateMu while holding a shard lock (the wait-loop predicates do), so
	// nothing takes a shard lock while holding stateMu — setErr and abort
	// release it before broadcasting the shards.
	stateMu sync.Mutex
	aborted bool  // run aborted: blocking waits must not park forever
	err     error // first stage/publish error
}

func newCommitter(e *Engine, ws checkpoint.WaveStorage) *committer {
	c := &committer{e: e, ws: ws}
	if sink := probeDeltaSink(ws); sink != nil {
		c.delta = newDeltaState(sink)
	}
	for i := range c.shards {
		s := &commitShard{
			partial:  make(map[int]*wave),
			queues:   make(map[int][]*wave),
			inflight: make(map[int]*wave),
			enq:      make(map[int]bool),
			durable:  make(map[int]int),
		}
		s.cond = sync.NewCond(&s.mu)
		c.shards[i] = s
	}
	return c
}

// shardOf returns the shard owning a cluster's bookkeeping.
func (c *committer) shardOf(cluster int) *commitShard {
	return c.shards[cluster%commitShards]
}

// submit hands one rank's capture-form checkpoint to the committer. The
// committer takes over the checkpoint's retained buffer references. Members
// of one cluster submit a wave completely before any member can reach the
// next (the wave's exit barrier), so at most one wave per cluster
// accumulates at a time. expect is the member count of the cluster under the
// wave's epoch — passed explicitly because the group sizes are per-epoch.
func (c *committer) submit(cluster, seq, expect int, cp *checkpoint.Checkpoint) {
	s := c.shardOf(cluster)
	s.mu.Lock()
	w := s.partial[cluster]
	if w == nil {
		w = &wave{cluster: cluster, seq: seq, expect: expect}
		s.partial[cluster] = w
	}
	w.members = append(w.members, cp)
	if len(w.members) == w.expect {
		delete(s.partial, cluster)
		w.captured = time.Now()
		s.queues[cluster] = append(s.queues[cluster], w)
		if !s.enq[cluster] {
			s.enq[cluster] = true
			s.ready = append(s.ready, cluster)
		}
		if !s.started {
			s.started = true
			c.wg.Add(1)
			go c.dispatcher(s)
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// dispatcher drains one shard: it pops the next ready cluster, commits the
// head wave of that cluster's FIFO, and re-schedules the cluster if more
// waves are queued. At most one wave per cluster is in flight, preserving
// per-cluster capture order.
func (c *committer) dispatcher(s *commitShard) {
	defer c.wg.Done()
	for {
		s.mu.Lock()
		for len(s.ready) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.ready) == 0 {
			s.mu.Unlock()
			return // closed and fully drained
		}
		cl := s.ready[0]
		s.ready = s.ready[1:]
		w := s.queues[cl][0]
		s.queues[cl] = s.queues[cl][1:]
		s.inflight[cl] = w
		s.mu.Unlock()

		c.commitWave(s, w)

		s.mu.Lock()
		delete(s.inflight, cl)
		if len(s.queues[cl]) > 0 {
			s.ready = append(s.ready, cl)
		} else {
			delete(s.enq, cl)
		}
		// A committed or discarded wave changes hasUnpublishedLocked: wake
		// any flush/cancelClusters re-evaluating its wait condition.
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// discard releases a wave's capture buffers without publishing.
func (w *wave) discard() {
	for _, cp := range w.members {
		cp.ReleaseShared()
	}
}

// maxStageWorkers bounds the per-wave parallel encode+stage fan-out.
func maxStageWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// commitWave encodes, stages and publishes one wave, then garbage-collects
// the remote log records the wave covers.
func (c *committer) commitWave(s *commitShard, w *wave) {
	// The mid-commit-drain fault point: a blocking hook here keeps the wave
	// in the not-yet-durable state, so chaos scenarios can pin a fault into
	// the middle of a draining wave. The wave is complete, so members[0]
	// carries its iteration and epoch.
	c.e.firePoint(PointMidCommitDrain, PointInfo{
		Rank: -1, Cluster: w.cluster, Iteration: w.members[0].Iteration, Wave: w.seq, Epoch: w.members[0].Epoch,
	})

	// Stage the members in parallel: encode each rank's binary image and make
	// it durable without publishing (temp file / retained image). A wave that
	// recovery has already canceled still flows through here — cancellation is
	// decided once, at the publish lock below, so a stage racing a rollback
	// (including a stage that *fails* on a wave recovery is discarding) always
	// resolves the same way: abort the staged images, swallow the error.
	commits := make([]func() error, len(w.members))
	aborts := make([]func(), len(w.members))
	errs := make([]error, len(w.members))
	plans := make([]*deltaPlan, len(w.members))
	stage := func(i int) {
		cp := w.members[i]
		image, err := checkpoint.EncodeBuffer(cp)
		if err != nil {
			errs[i] = err
			return
		}
		// With a delta-capable tier below, re-encode the image as a codec-v3
		// frame against the rank's previous published wave. This runs on the
		// background stage pool — exactly the place the capture/commit split
		// made free — so the byte savings cost the barrier nothing.
		staged := image
		if c.delta != nil {
			staged, plans[i] = c.delta.encode(cp.Rank, cp.Wave, image)
		}
		commit, abort, err := c.ws.StageImage(cp.Rank, staged)
		if c.delta != nil {
			staged.Release() // encode returned an owned reference
		}
		image.Release()
		if err != nil {
			plans[i].drop()
			plans[i] = nil
			errs[i] = err
			return
		}
		commits[i], aborts[i] = commit, abort
	}
	workers := maxStageWorkers()
	if workers > len(w.members) {
		workers = len(w.members)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				stage(i)
			}
		}()
	}
	for i := range w.members {
		next <- i
	}
	close(next)
	wg.Wait()
	var stageErr error
	for _, err := range errs {
		if err != nil {
			stageErr = err
			break
		}
	}

	// Publish atomically: every member commits under the shard lock (commit
	// is cheap — a rename or pointer swap), so recovery either sees the whole
	// wave or none of it, and a cancellation that lost the race to this
	// critical section finds the wave already durable.
	dropPlans := func(from int) {
		for _, p := range plans[from:] {
			p.drop()
		}
	}
	s.mu.Lock()
	if w.canceled {
		// A canceled wave is discarded whether or not it also failed to
		// stage: recovery already decided to roll back past it, so a storage
		// fault racing the cancellation must not fail the run. Its members
		// never become delta bases — the base map only advances on publish.
		s.mu.Unlock()
		for _, abort := range aborts {
			if abort != nil {
				abort()
			}
		}
		dropPlans(0)
		w.discard()
		return
	}
	if stageErr != nil {
		s.mu.Unlock()
		c.setErr(stageErr)
		for _, abort := range aborts {
			if abort != nil {
				abort()
			}
		}
		dropPlans(0)
		w.discard()
		return
	}
	for i, commit := range commits {
		if err := commit(); err != nil {
			// Members before i are already published and cannot be undone —
			// a rename failing mid-publish leaves a partial wave on stable
			// storage. The error fails the run (checkpointRank surfaces it at
			// the next wave), so no in-run recovery consumes the mixed state;
			// the failed member and the rest are aborted so no staged images
			// leak.
			s.mu.Unlock()
			c.setErr(fmt.Errorf("core: publish checkpoint of rank %d: %w", w.members[i].Rank, err))
			for _, abort := range aborts[i:] {
				abort()
			}
			dropPlans(0)
			w.discard()
			return
		}
	}
	w.published = true
	s.durable[w.cluster]++
	s.cond.Broadcast() // wake a cancelClusters waiting for a first durable wave
	s.mu.Unlock()

	var bytes uint64
	for _, cp := range w.members {
		bytes += cp.Size()
	}
	cnt := &c.e.counters
	cnt.saves.Add(int64(len(w.members)))
	cnt.savedBytes.Add(bytes)
	cnt.waves.Add(1)
	cnt.commitNs.Add(time.Since(w.captured).Nanoseconds())
	for _, p := range plans {
		if p == nil {
			continue
		}
		cnt.bytesStaged.Add(uint64(p.stagedLen))
		cnt.bytesFull.Add(uint64(p.fullLen))
		if p.isDelta {
			cnt.deltaImages.Add(1)
		} else {
			cnt.fullImages.Add(1)
		}
		// The published wave becomes the rank's next delta base, and the
		// tier's materialized image of it.
		c.delta.publish(p)
	}

	// The wave is durable: only now may the remote-log records it covers be
	// garbage-collected (Algorithm 1's truncation). Until this point a fault
	// would roll the cluster back to the previous durable wave, whose replay
	// records must still be in the senders' logs.
	c.e.gcLogsWave(w)
	w.discard()
}

// setErr records the first commit error and wakes every parked waiter
// (flush, cancelClusters): their wait loops exit on the error, so an error
// on the very first wave must not leave a recovery leader sleeping forever.
// Must not be called with a shard lock held.
func (c *committer) setErr(err error) {
	if err == nil {
		return
	}
	c.stateMu.Lock()
	changed := c.err == nil
	if changed {
		c.err = err
	}
	c.stateMu.Unlock()
	if changed {
		c.broadcastAll()
	}
}

// broadcastAll wakes the waiters of every shard. Broadcasting under each
// shard's lock closes the check-then-wait race: a waiter that tested the
// global flags before they flipped is either still holding its shard lock
// (we block until it parks) or already parked (the broadcast reaches it).
func (c *committer) broadcastAll() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// firstErr returns the first commit error, if any.
func (c *committer) firstErr() error {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.err
}

// isAborted reports whether the run was aborted.
func (c *committer) isAborted() bool {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.aborted
}

// hasUnpublishedLocked reports whether the cluster has waves that are
// captured (possibly partially) but not yet published. Caller holds s.mu.
func (s *commitShard) hasUnpublishedLocked(cluster int) bool {
	return s.partial[cluster] != nil || s.inflight[cluster] != nil || len(s.queues[cluster]) > 0
}

// anyUnpublishedLocked reports whether any cluster of the shard has
// unpublished waves. Caller holds s.mu.
func (s *commitShard) anyUnpublishedLocked() bool {
	if len(s.partial) > 0 || len(s.inflight) > 0 {
		return true
	}
	for _, q := range s.queues {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// flush blocks until every captured wave — of every cluster — is durably
// published (or the committer failed, or the run aborted). Epoch switches
// use it twice: once before the first wave of a new epoch is submitted, so
// waves keyed by the old epoch's cluster ids never share the queues with the
// new numbering and stable storage stays monotone per rank (the world is
// quiescent behind the adaptive decision gate there, so the shard-by-shard
// sweep observes a stable state); and once after the wave that opens the
// epoch, which makes that wave the epoch's durable recovery line before any
// rank advances past it — there the sweep guarantees at least the caller's
// own cluster, whose shard it waits on, and every other rank gives the same
// guarantee for its own cluster before it can pass any later fault
// rendezvous. A member may flush while its own wave is still partial: the
// remaining members are between the same barriers and submit before they
// flush, so the wave always completes and drains — unless one of them errors
// out before submitting, in which case Engine.abortRun's abort() releases
// the waiters.
func (c *committer) flush() error {
	for _, s := range c.shards {
		s.mu.Lock()
		for c.firstErr() == nil && !c.isAborted() && s.anyUnpublishedLocked() {
			s.cond.Wait()
		}
		s.mu.Unlock()
	}
	if err := c.firstErr(); err != nil {
		return err
	}
	if c.isAborted() {
		return fmt.Errorf("core: run aborted: %w", mpi.ErrWorldStopped)
	}
	return nil
}

// abort releases every rank parked on a committer condvar (flush or
// cancelClusters): a rank that errored before submitting its wave member
// would otherwise leave the wave partial and its cluster-mates blocked
// forever. Background dispatchers are unaffected — complete waves still
// drain, and drain() releases partial ones.
func (c *committer) abort() {
	c.stateMu.Lock()
	c.aborted = true
	c.stateMu.Unlock()
	c.broadcastAll()
}

// cancelClusters discards every unpublished wave of the given clusters (ids
// ascending, the order they are swept in), so recovery rolls back to the last durable wave. For a cluster with no
// durable wave yet (a fault racing the very first commit), it waits for the
// oldest in-flight wave to publish first — checkpointing starts at iteration
// 0, so such a wave always exists — keeping "no checkpoint to roll back to"
// impossible. Returns the number of waves canceled. It must be called while
// the affected ranks are quiescent (between the fault rendezvous and the
// checkpoint loads), so no new wave of these clusters can appear
// concurrently — which also makes the cluster-by-cluster sweep across shards
// equivalent to the old single-lock cancellation.
func (c *committer) cancelClusters(ids []int) int {
	n := 0
	for _, cl := range ids {
		s := c.shardOf(cl)
		s.mu.Lock()
		for s.durable[cl] == 0 && s.hasUnpublishedLocked(cl) && c.firstErr() == nil && !c.isAborted() {
			s.cond.Wait()
		}
		cancel := func(w *wave) {
			// A wave that already published is durable — recovery will
			// restore it; marking it canceled would only skew the wave
			// accounting.
			if w != nil && !w.canceled && !w.published {
				w.canceled = true
				n++
			}
		}
		cancel(s.partial[cl])
		cancel(s.inflight[cl])
		for _, w := range s.queues[cl] {
			cancel(w)
		}
		s.mu.Unlock()
	}
	return n
}

// drain closes the committer and waits for every queued wave to commit. It
// returns the first commit error.
func (c *committer) drain() error {
	for _, s := range c.shards {
		s.mu.Lock()
		s.closed = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	c.wg.Wait()
	// An aborted run can leave a partially captured wave behind; release its
	// buffers (it is never published).
	for _, s := range c.shards {
		s.mu.Lock()
		for cl, w := range s.partial {
			w.discard()
			delete(s.partial, cl)
		}
		s.mu.Unlock()
	}
	if c.delta != nil {
		c.delta.close()
	}
	return c.firstErr()
}
