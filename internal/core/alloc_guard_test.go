package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/buf"
	"repro/internal/logstore"
	"repro/internal/mpi"
)

// Allocation-regression guards on the steady-state eager send path. The
// zero-copy fabric brings the path to two small allocations per send/recv
// round (the two request headers): payload buffers and message headers are
// pooled, the sender log retains the pooled payload instead of copying it,
// and no trace machinery runs without a recorder. The thresholds leave slack
// for a GC draining the pools mid-run, but sit far below the pre-fabric cost
// (6 allocs/op native, 7 logged), so a reintroduced per-send copy or a
// de-pooled header trips them.

// guardRounds is the batch of rounds one AllocsPerRun call measures.
const guardRounds = 100

func skipAllocGuardUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		// sync.Pool drops items on purpose under the race detector, so the
		// pooled paths re-allocate; the guards run raceless in the CI bench
		// job.
		t.Skip("allocation guards are meaningless under the race detector")
	}
}

// allocsPerRound measures steady-state allocations per eager send/recv round
// of a size-byte payload from p0 to p1.
func allocsPerRound(t *testing.T, p0, p1 *mpi.Proc, store *logstore.Store, size int) float64 {
	t.Helper()
	payload := make([]byte, size)
	rbuf := make([]byte, size)
	// Warm the channel state, the rings and the buffer pools.
	if err := runEagerSteadyState(p0, p1, store, payload, rbuf, 2*benchGCPeriod); err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(20, func() {
		if err := runEagerSteadyState(p0, p1, store, payload, rbuf, guardRounds); err != nil {
			t.Fatal(err)
		}
	})
	return perRun / guardRounds
}

// guardEagerSend pins the steady-state round of one send path (pol; nil is
// native) at each payload size. Every cell measures 2 (the two request
// headers); the ceilings, 3.0 unlogged and 3.5 logged, leave slack for a GC
// draining the pools mid-run.
func guardEagerSend(t *testing.T, pol Policy) {
	t.Helper()
	skipAllocGuardUnderRace(t)
	ceiling := 3.0
	if pol != nil && pol.Logs(0, 0, 1) {
		ceiling = 3.5
	}
	for _, size := range []int{64, 1024, 16384} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			p0, p1, store := newBenchPair(t, pol)
			if got := allocsPerRound(t, p0, p1, store, size); got > ceiling {
				t.Errorf("eager send/recv allocates %.2f objects per round, want <= %.1f: "+
					"a per-send copy or a de-pooled header is back", got, ceiling)
			}
		})
	}
}

// One guard per runtime-distinct send path. Adaptive SPBC shares static
// SPBC's send path, so it has no guard of its own.

func TestAllocGuardEagerSendNative(t *testing.T) { guardEagerSend(t, nil) }

func TestAllocGuardEagerSendCoordinated(t *testing.T) {
	guardEagerSend(t, NewCoordinatedProtocol(2))
}

func TestAllocGuardEagerSendFullLog(t *testing.T) { guardEagerSend(t, NewFullLogProtocol(2)) }

func TestAllocGuardEagerSendSPBC(t *testing.T) { guardEagerSend(t, NewSPBCProtocol([]int{0, 1})) }

// TestAllocGuardTracedSend pins clock-free recording: a traced eager round
// appends two events and allocates the same at 64 and at 4096 ranks. Any
// world-sized state on the traced path (a vector clock ticked per send,
// carried per message or scanned per record) would show up at 4096 ranks.
func TestAllocGuardTracedSend(t *testing.T) {
	skipAllocGuardUnderRace(t)
	perRound := func(ranks int) float64 {
		p0, p1 := newTracedPair(t, ranks)
		return allocsPerRound(t, p0, p1, nil, 1024)
	}
	small, big := perRound(64), perRound(4096)
	// Collect the 4096-rank world now, so its GC cycle cannot land inside
	// the next guard and empty the buffer pools mid-measurement.
	runtime.GC()
	t.Logf("traced eager round: %.2f allocs at 64 ranks, %.2f at 4096", small, big)
	if big > small+0.25 {
		t.Errorf("traced eager round allocates %.2f objects at 4096 ranks vs %.2f at 64: "+
			"world-sized state is back on the traced path", big, small)
	}
	if small > 3.5 {
		t.Errorf("traced eager round allocates %.2f objects, want <= 3.5 "+
			"(the native round plus amortized event-buffer growth)", small)
	}
}

// TestAllocGuardEpochView pins the cached-policy-view invariant: the engine
// validates each epoch once into an EpochView, and every subsequent group or
// logging lookup — the per-send Logs check and the per-wave GroupOf access —
// is a slice read with zero allocations. A view that re-called the Policy
// interface (which returns a fresh copy per call) would trip this instantly.
func TestAllocGuardEpochView(t *testing.T) {
	view, err := NewEpochView(NewSPBCProtocol([]int{0, 0, 1, 1, 2, 2, 3, 3}), 0, 8)
	if err != nil {
		t.Fatalf("NewEpochView: %v", err)
	}
	sink := false
	sum := 0
	perOp := testing.AllocsPerRun(100, func() {
		for s := 0; s < 8; s++ {
			for d := 0; d < 8; d++ {
				sink = sink != view.Logs(s, d)
			}
		}
		groupOf := view.GroupOf()
		sum += groupOf[3] + view.Group(5) + view.GroupSize(view.Groups()-1)
	})
	if perOp != 0 {
		t.Errorf("cached epoch view allocates %.1f objects per access batch, want 0: "+
			"a policy call returned to the hot path", perOp)
	}
	_ = sink
	_ = sum
}

// The pool must actually recycle in steady state: a send/recv round with
// periodic log GC returns every payload buffer, so pool gets vastly outnumber
// pool misses.
func TestBufferPoolRecyclesOnEagerPath(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	p0, p1, store := newBenchPair(t, NewSPBCProtocol([]int{0, 1}))
	payload := make([]byte, 1024)
	rbuf := make([]byte, 1024)
	if err := runEagerSteadyState(p0, p1, store, payload, rbuf, 2*benchGCPeriod); err != nil {
		t.Fatal(err)
	}
	before := buf.PoolStats()
	const rounds = 1000
	if err := runEagerSteadyState(p0, p1, store, payload, rbuf, rounds); err != nil {
		t.Fatal(err)
	}
	after := buf.PoolStats()
	gets := after.Gets - before.Gets
	missed := after.Misses - before.Misses
	if gets < rounds {
		t.Fatalf("expected at least %d pool gets, saw %d", rounds, gets)
	}
	if missed*10 > gets {
		t.Errorf("pool misses %d out of %d gets: steady state should recycle (>90%% hits)", missed, gets)
	}
}
