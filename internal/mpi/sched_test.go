package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
)

// The scheduler tests pin the wake machinery's contract: parking and waking
// through the shard mailboxes must be invisible to rank code — same matching
// order, same error and panic semantics, same abort behavior.

// schedAuto names the subtest that runs under the scheduler's own shard
// count, sized from GOMAXPROCS and the world size. It is the only setting:
// a shard count can no longer be forced.
const schedAuto = "auto"

// TestSchedulerRandomParkWakeStress drives the park sites — blocking Recv,
// Probe, a rendezvous send's Wait, Barrier — with seeded pseudo-random
// traffic on a multi-shard world (24 ranks over at least 4 shards). The cost
// model's eager threshold is lowered so roughly half the messages take the
// rendezvous path (sender parks until the receiver matches). Run with -race
// this is the lost-wakeup/teardown stress for the shard mailboxes.
func TestSchedulerRandomParkWakeStress(t *testing.T) {
	t.Run(schedAuto, func(t *testing.T) {
		const ranks, iters = 24, 40
		cost := simnet.DefaultCostModel()
		cost.EagerThreshold = 64 // force frequent rendezvous parking
		w, err := NewWorld(ranks, cost)
		if err != nil {
			t.Fatalf("NewWorld: %v", err)
		}
		err = w.Run(func(p *Proc) error {
			rng := rand.New(rand.NewSource(int64(p.Rank()) + 1))
			comm := w.CommWorld()
			right := (p.Rank() + 1) % ranks
			left := (p.Rank() + ranks - 1) % ranks
			for it := 0; it < iters; it++ {
				size := 1 + rng.Intn(128) // straddles the eager threshold
				payload := make([]byte, size)
				for i := range payload {
					payload[i] = byte(p.Rank() ^ it ^ i)
				}
				req, err := p.Isend(payload, right, it, comm)
				if err != nil {
					return err
				}
				// Probe parks until the neighbor's message arrives, then the
				// sized Recv parks on the rendezvous handshake.
				st, err := p.Probe(left, it, comm)
				if err != nil {
					return err
				}
				buf := make([]byte, st.Bytes)
				if _, err := p.Recv(buf, left, it, comm); err != nil {
					return err
				}
				for i, b := range buf {
					if want := byte(left ^ it ^ i); b != want {
						return fmt.Errorf("iter %d byte %d: got %#x want %#x", it, i, b, want)
					}
				}
				if _, err := p.Wait(req); err != nil {
					return err
				}
				if it%8 == 7 {
					if err := p.Barrier(comm); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("stress run: %v", err)
		}
	})
}

// TestProbeNoLostWakeup pins the monitor rule for Probe: a rank that finds
// no match parks under the same p.mu hold as its scan, so a delivery that
// lands just after the scan still wakes it. Two ranks run many rounds of
// Isend → Probe → Recv; on alternate rounds each rank's message takes the
// rendezvous path, so when the other rank misses that message's arrival and
// parks in Probe, nothing else will ever wake it: the sender waits for the
// receive that would, and a lost wakeup hangs both ranks. A watchdog aborts
// the world once 10 s pass without a completed round, so the hang fails
// here rather than at the package timeout.
func TestProbeNoLostWakeup(t *testing.T) {
	const rounds = 100000
	cost := simnet.DefaultCostModel()
	cost.EagerThreshold = 64
	w, err := NewWorld(2, cost)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	var progress atomic.Int64
	var lost atomic.Bool
	done := make(chan struct{})
	defer close(done)
	go func() {
		tick := time.NewTicker(10 * time.Second)
		defer tick.Stop()
		last := int64(-1)
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if n := progress.Load(); n != last {
				last = n
				continue
			}
			lost.Store(true)
			w.Abort()
			return
		}
	}()
	err = w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		peer := 1 - p.Rank()
		small, large := make([]byte, 8), make([]byte, 2*cost.EagerThreshold)
		buf := make([]byte, len(large))
		for it := 0; it < rounds; it++ {
			payload, tag := small, it%(MaxAppTag+1)
			if it%2 == p.Rank() {
				payload = large // completes only once the peer receives it
			}
			req, err := p.Isend(payload, peer, tag, comm)
			if err != nil {
				return err
			}
			st, err := p.Probe(peer, tag, comm)
			if err != nil {
				return err
			}
			if _, err := p.Recv(buf[:st.Bytes], peer, tag, comm); err != nil {
				return err
			}
			if _, err := p.Wait(req); err != nil {
				return err
			}
			progress.Add(1)
		}
		return nil
	})
	if lost.Load() {
		t.Fatalf("lost wakeup: no round completed in 10 s, a rank stayed parked in Probe with its match queued (run: %v)", err)
	}
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestSchedulerAbortMidWait parks most of the world in receives that can
// never match, fails one rank, and requires (a) everyone wakes and
// terminates, (b) Run reports the failing rank's error — the primary
// failure — not a secondary ErrWorldStopped reaction.
func TestSchedulerAbortMidWait(t *testing.T) {
	t.Run(schedAuto, func(t *testing.T) {
		const ranks = 8
		boom := errors.New("boom")
		w := testWorld(t, ranks)
		err := w.Run(func(p *Proc) error {
			if p.Rank() == 3 {
				p.Compute(1e-6)
				return boom
			}
			buf := make([]byte, 8)
			_, err := p.Recv(buf, 3, 99, w.CommWorld()) // never sent
			return err
		})
		if err == nil {
			t.Fatal("run with a failing rank returned nil")
		}
		if !errors.Is(err, boom) {
			t.Fatalf("run error = %v, want the primary failure (rank 3: boom)", err)
		}
		if errors.Is(err, ErrWorldStopped) {
			t.Fatalf("run preferred a secondary abort error: %v", err)
		}
		if !strings.Contains(err.Error(), "rank 3") {
			t.Fatalf("run error %q does not name the failing rank", err)
		}
	})
}

// TestSchedulerPanicInRank panics one rank mid-run while the rest are
// parked; Run must capture it as a "rank N panicked" error and release the
// parked ranks instead of deadlocking.
func TestSchedulerPanicInRank(t *testing.T) {
	t.Run(schedAuto, func(t *testing.T) {
		const ranks = 6
		w := testWorld(t, ranks)
		err := w.Run(func(p *Proc) error {
			if p.Rank() == 2 {
				p.Compute(1e-6)
				panic("scheduler-test panic")
			}
			buf := make([]byte, 8)
			_, err := p.Recv(buf, 2, 99, w.CommWorld()) // never sent
			return err
		})
		if err == nil {
			t.Fatal("run with a panicking rank returned nil")
		}
		if !strings.Contains(err.Error(), "rank 2 panicked") {
			t.Fatalf("run error %q does not capture the panic", err)
		}
		if !strings.Contains(err.Error(), "scheduler-test panic") {
			t.Fatalf("run error %q lost the panic value", err)
		}
	})
}

// TestSchedulerTeardownAfterRun pins that Run tears its scheduler down
// (sched pointer cleared) whether the run was clean or aborted: a clean run
// leaves the world usable, and an aborted one leaves it stopped, so a later
// Run whose ranks block fails fast with ErrWorldStopped instead of parking
// with no scheduler to wake them.
func TestSchedulerTeardownAfterRun(t *testing.T) {
	w := testWorld(t, 4)
	if err := w.Run(func(p *Proc) error { return nil }); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if w.sched.Load() != nil {
		t.Fatal("scheduler still installed after Run returned")
	}
	if w.Stopped() {
		t.Fatal("clean run left the world stopped")
	}

	boom := errors.New("boom")
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			return boom
		}
		_, err := p.Recv(make([]byte, 8), 0, 99, w.CommWorld()) // never sent
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("aborted run error = %v, want rank 0's boom", err)
	}
	if w.sched.Load() != nil {
		t.Fatal("scheduler still installed after an aborted Run returned")
	}
	if !w.Stopped() {
		t.Fatal("aborted run left the world running")
	}
	err = w.Run(func(p *Proc) error {
		_, err := p.Recv(make([]byte, 8), (p.Rank()+1)%4, 1, w.CommWorld())
		return err
	})
	if !errors.Is(err, ErrWorldStopped) {
		t.Fatalf("run on a stopped world = %v, want ErrWorldStopped", err)
	}
}
