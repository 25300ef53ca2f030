package mpi

import (
	"runtime"
	"sync"
)

// This file implements the sharded wake scheduler that replaces the
// per-Proc condition variable. The old shape — every Proc owning a
// sync.Cond and every deliver/complete broadcasting on it — has two
// problems at 100k ranks: every state change wakes *all* waiters of the
// target rank whether or not their predicate advanced, and World.Abort has
// to walk the whole world locking every p.mu just to broadcast.
//
// The new shape splits parking from waking:
//
//   - Only the rank's own goroutine ever blocks on a Proc (Wait/Waitany/
//     Probe are rank-goroutine-only by contract), so a Proc has one waiter:
//     it sets p.parked under p.mu and parks on p.wake, a 1-buffered channel
//     allocated once with the Proc, so steady-state blocking is
//     allocation-free.
//
//   - A state change calls notifyLocked. With a scheduler installed the
//     rank is appended to its shard's mailbox (coalesced by a per-Proc
//     wakeQueued flag — a rank already queued is not queued twice) and the
//     shard's worker loop hands the parked rank its wake token. Ranks are
//     batched onto min(GOMAXPROCS·shardFactor, size) shard loops in
//     contiguous blocks, so a burst of deliveries wakes each shard once
//     and the wake fan-out runs on a bounded number of loops instead of
//     thundering across the world.
//
//   - Abort posts one abort token per shard — O(shards) on the caller's
//     path — and each shard loop sweeps its own rank block.
//
// Wake-up through the mailbox is strictly a liveness mechanism: all
// protocol state (queues, requests, clocks) is guarded by p.mu and all
// matching decisions are made by the sender's call order in virtual time,
// so routing wakes through shard loops cannot change matching order or any
// simulated result. WithShards(-1) selects the legacy direct-wake path
// (the parked rank is woken inline at the notify site); the scheduler tests
// use it to cross-check bit-identical digests.

// shardFactor scales the number of shard loops per GOMAXPROCS.
const shardFactor = 4

// shard is one mailbox + worker loop owning a contiguous block of ranks.
type shard struct {
	lo, hi int // world ranks [lo, hi)

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []int32 // pending wakeups, appended by notifyLocked
	spare    []int32 // recycled batch buffer, owned by the loop
	abortAll bool    // sweep-wake the whole rank block
	closed   bool
}

// scheduler fans rank wakeups out over the shard loops for the duration of
// one World.Run.
type scheduler struct {
	world *World
	// shards splits [0, world.size) into contiguous blocks of `block`
	// ranks; rank r belongs to shards[r/block].
	shards []shard
	block  int
	wg     sync.WaitGroup
}

func newScheduler(w *World, nshards int) *scheduler {
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0) * shardFactor
	}
	if nshards > w.size {
		nshards = w.size
	}
	block := (w.size + nshards - 1) / nshards
	nshards = (w.size + block - 1) / block
	s := &scheduler{world: w, shards: make([]shard, nshards), block: block}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lo = i * block
		sh.hi = min(sh.lo+block, w.size)
		sh.cond = sync.NewCond(&sh.mu)
	}
	return s
}

// start launches the shard loops and spawns the rank bodies, one spawner
// per shard so world-sized fiber launch is parallel instead of a single
// serial loop.
func (s *scheduler) start(body func(rank int)) {
	for i := range s.shards {
		sh := &s.shards[i]
		s.wg.Add(1)
		go s.loop(sh)
		go func(lo, hi int) {
			for r := lo; r < hi; r++ {
				go body(r)
			}
		}(sh.lo, sh.hi)
	}
}

// stop shuts the shard loops down after every rank body has returned.
// Pending mailbox entries are drained first so no posted wake is dropped.
func (s *scheduler) stop() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.closed = true
		sh.cond.Signal()
		sh.mu.Unlock()
	}
	s.wg.Wait()
}

// post enqueues a wake for p on its shard mailbox. It reports false when
// the shard has already shut down, in which case the caller must wake
// inline. Callers hold p.mu; the p.mu → sh.mu order is acyclic because the
// loop always releases sh.mu before taking any p.mu.
func (s *scheduler) post(p *Proc) bool {
	if !p.wakeQueued.CompareAndSwap(false, true) {
		return true // already queued; the pending drain will observe the new state
	}
	sh := &s.shards[p.id/s.block]
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		p.wakeQueued.Store(false)
		return false
	}
	sh.queue = append(sh.queue, int32(p.id))
	if len(sh.queue) == 1 {
		sh.cond.Signal()
	}
	sh.mu.Unlock()
	return true
}

// abort arms the whole-block sweep on every shard. O(shards) for the
// caller; the sweeps themselves run on the shard loops.
func (s *scheduler) abort() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.abortAll = true
		sh.cond.Signal()
		sh.mu.Unlock()
	}
}

func (s *scheduler) loop(sh *shard) {
	defer s.wg.Done()
	for {
		sh.mu.Lock()
		for len(sh.queue) == 0 && !sh.abortAll && !sh.closed {
			sh.cond.Wait()
		}
		batch := sh.queue
		sh.queue = sh.spare[:0]
		doAbort := sh.abortAll
		sh.abortAll = false
		if sh.closed && len(batch) == 0 && !doAbort {
			sh.mu.Unlock()
			return
		}
		sh.mu.Unlock()

		if doAbort {
			for r := sh.lo; r < sh.hi; r++ {
				s.wake(s.world.procs[r])
			}
		}
		for _, r := range batch {
			s.wake(s.world.procs[r])
		}
		sh.spare = batch[:0]
	}
}

// wake hands p's wake token to its parked rank goroutine. Clearing
// wakeQueued *before* taking p.mu closes the lost-wakeup window: a notify
// that races with the drain either finds wakeQueued still set (its state
// change happened under p.mu before this wake acquires it, so the woken rank
// observes it) or re-queues the rank.
func (s *scheduler) wake(p *Proc) {
	p.wakeQueued.Store(false)
	p.mu.Lock()
	p.wakeLocked()
	p.mu.Unlock()
}

// sleepLocked parks the rank's own goroutine until the next wake of p.
// Caller holds p.mu; it is released while parked and re-acquired before
// returning. Returns may be spurious — callers re-check their predicate in
// a loop, exactly as with the condition variable this replaces.
func (p *Proc) sleepLocked() {
	p.parked = true
	p.mu.Unlock()
	<-p.wake
	p.mu.Lock()
}

// wakeLocked hands the wake token to the parked rank goroutine, if any. The
// token is only sent while p.parked is set, and parked is cleared at send
// time, so at most one token is outstanding, the rank always consumes it
// before it parks again, and the send never blocks. Caller holds p.mu.
func (p *Proc) wakeLocked() {
	if !p.parked {
		return
	}
	p.parked = false
	p.wake <- struct{}{}
}

// notifyLocked signals that state guarded by p.mu changed. With a
// scheduler installed the wake rides p's shard mailbox; otherwise (legacy
// mode, or outside World.Run) the parked rank is woken inline. Caller holds
// p.mu.
func (p *Proc) notifyLocked() {
	if !p.parked {
		return
	}
	if s := p.world.sched.Load(); s != nil && s.post(p) {
		return
	}
	p.wakeLocked()
}
