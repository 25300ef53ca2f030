package mpi

import (
	"runtime"
	"sync"
)

// This file implements how a rank blocks and how it is woken. There is one
// way to park and one way to wake:
//
//   - Only the rank's own goroutine ever blocks on a Proc (Wait/Waitany/
//     Probe are rank-goroutine-only by contract), and each of them parks
//     through blockLocked and nowhere else: it tests its predicate under
//     p.mu and, while the predicate is false, calls blockLocked under that
//     same hold, which sets p.parked and parks on p.wake, a 1-buffered
//     channel allocated once with the Proc, so steady-state blocking is
//     allocation-free. Because the test and the sleep share one hold, a
//     delivery either lands before the test (and the test sees it) or
//     finds the rank parked (and wakes it): no wakeup is lost.
//
//   - A state change calls notifyLocked, which appends a parked rank to its
//     shard's mailbox (coalesced by a per-Proc wakeQueued flag — a rank
//     already queued is not queued twice); the shard's worker loop hands
//     the parked rank its wake token. Ranks are batched onto
//     min(GOMAXPROCS·shardFactor, size) shard loops in contiguous blocks,
//     so a burst of deliveries wakes each shard once and the wake fan-out
//     runs on a bounded number of loops instead of thundering across the
//     world.
//
//   - Abort posts one abort token per shard — O(shards) on the caller's
//     path — and each shard loop sweeps its own rank block.
//
// Wake-up through the mailbox is strictly a liveness mechanism: all
// protocol state (queues, requests, clocks) is guarded by p.mu and all
// matching decisions are made by the sender's call order in virtual time,
// so routing wakes through shard loops cannot change matching order or any
// simulated result; the shard count (which follows GOMAXPROCS) changes only
// which loop delivers a wake.

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

func newScheduler(w *World) *scheduler {
	nshards := min(runtime.GOMAXPROCS(0)*shardFactor, w.size)
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

// post enqueues a wake for p on its shard mailbox. Callers hold p.mu; the
// p.mu → sh.mu order is acyclic because the loop always releases sh.mu
// before taking any p.mu. A shard is closed only after every rank body has
// returned, when no rank is parked any more, so a post never meets a closed
// shard.
func (s *scheduler) post(p *Proc) {
	if !p.wakeQueued.CompareAndSwap(false, true) {
		return // already queued; the pending drain will observe the new state
	}
	sh := &s.shards[p.id/s.block]
	sh.mu.Lock()
	sh.queue = append(sh.queue, int32(p.id))
	if len(sh.queue) == 1 {
		sh.cond.Signal()
	}
	sh.mu.Unlock()
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

// wake hands p's wake token to its parked rank goroutine, if any. Clearing
// wakeQueued *before* taking p.mu closes the lost-wakeup window: a notify
// that races with the drain either finds wakeQueued still set (its state
// change happened under p.mu before this wake acquires it, so the woken rank
// observes it) or re-queues the rank. The token is only sent while p.parked
// is set, and parked is cleared at send time, so at most one token is
// outstanding, the rank always consumes it before it parks again, and the
// send never blocks.
func (s *scheduler) wake(p *Proc) {
	p.wakeQueued.Store(false)
	p.mu.Lock()
	if p.parked {
		p.parked = false
		p.wake <- struct{}{}
	}
	p.mu.Unlock()
}

// blockLocked is the one place a rank goroutine parks. The caller holds p.mu,
// has just found its predicate false under that hold, and re-tests it, still
// under p.mu, each time blockLocked returns nil: the test and the sleep share
// one hold, so a delivery is either seen by the test or finds the rank parked
// (the monitor rule). It returns ErrWorldStopped once the world is stopped,
// releases a non-empty network-chaos hold buffer (the flushed messages may
// satisfy the predicate), and otherwise sleeps until the next wake. It
// returns with p.mu held.
func (p *Proc) blockLocked() error {
	if p.world.Stopped() {
		return ErrWorldStopped
	}
	if senders, flushed := p.flushHeldLocked(); flushed {
		p.mu.Unlock()
		completeSenders(senders)
		p.mu.Lock()
		return nil
	}
	p.sleepLocked()
	return nil
}

// sleepLocked parks the rank's own goroutine until the next wake of p.
// Caller holds p.mu; it is released while parked and re-acquired before
// returning. Returns may be spurious — the caller re-tests its predicate.
func (p *Proc) sleepLocked() {
	p.parked = true
	p.mu.Unlock()
	<-p.wake
	p.mu.Lock()
}

// notifyLocked signals that state guarded by p.mu changed, and posts a wake
// when the rank is parked. A rank parks only inside World.Run, while the
// scheduler is installed. Caller holds p.mu.
func (p *Proc) notifyLocked() {
	if p.parked {
		p.world.sched.Load().post(p)
	}
}
