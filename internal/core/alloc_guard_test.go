package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/app"
	"repro/internal/buf"
	"repro/internal/logstore"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/simnet"
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
func guardEagerSend(t *testing.T, pol *Policy) {
	t.Helper()
	skipAllocGuardUnderRace(t)
	ceiling := 3.0
	if pol != nil && pol.groupOf[0] != pol.groupOf[1] {
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

// TestAllocGuardRecoverySet pins the O(set) recovery bookkeeping: building
// a fault event's rollback set, testing every rank against it and electing
// its leader allocate the same at 64 and at 4096 ranks, and at most once per
// event (the group-id slice). A rank-set map or a world scan per rank would
// show up at 4096 ranks.
func TestAllocGuardRecoverySet(t *testing.T) {
	skipAllocGuardUnderRace(t)
	perEvent := func(ranks int) float64 {
		groupOf := make([]int, ranks)
		for r := range groupOf {
			groupOf[r] = r * 4 / ranks // four contiguous groups
		}
		view, err := NewEpochView(0, groupOf)
		if err != nil {
			t.Fatalf("NewEpochView: %v", err)
		}
		// Two faults in the last group and one in the second.
		faults := []Fault{{Rank: ranks - 1, Iteration: 3}, {Rank: ranks / 4, Iteration: 3}, {Rank: ranks - 2, Iteration: 3}}
		n := 0
		event := func() {
			set := newRollbackSet(view, faults)
			for r := 0; r < ranks; r++ {
				if set.has(r) {
					n++
				}
			}
			n += set.leader()
		}
		event()
		if want := ranks/2 + ranks/4; n != want { // two groups of ranks/4, leader ranks/4
			t.Fatalf("%d ranks: has/leader tally %d, want %d", ranks, n, want)
		}
		return testing.AllocsPerRun(100, event)
	}
	small, big := perEvent(64), perEvent(4096)
	t.Logf("rollback set per event: %.2f allocs at 64 ranks, %.2f at 4096", small, big)
	if big != small {
		t.Errorf("rollback set allocates %.2f objects per event at 4096 ranks vs %.2f at 64: "+
			"world-sized state is back in the recovery bookkeeping", big, small)
	}
	if small > 1 {
		t.Errorf("rollback set allocates %.2f objects per event, want <= 1 (the group-id slice)", small)
	}
}

// TestAllocGuardReplay pins zero-copy recovery replay: injectReplays hands
// each logged buffer itself, with a reference of its own, to the replayed
// message, as a send hands its buffer to the in-flight message. Replaying 64
// logged 16 KiB records must therefore allocate no payload bytes; a copy out
// of the log or into the message costs 16 KiB a record. The first replay is
// received and checked; the measured ones land on a destination that already
// holds every sequence number, whose duplicate filter drops them after the
// whole replay path has run.
func TestAllocGuardReplay(t *testing.T) {
	skipAllocGuardUnderRace(t)
	const records, size = 64, 16 << 10
	w, err := mpi.NewWorld(2, simnet.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{world: w, stores: []*logstore.Store{logstore.New(), logstore.New()}}
	comm := w.CommWorld().ID()
	logged := make([]*buf.Buffer, records)
	for i := range logged {
		payload := make([]byte, size)
		payload[0], payload[size-1] = byte(i), byte(i+1)
		logged[i] = buf.Copy(payload)
		env := mpi.Envelope{Source: 0, Dest: 1, CommID: comm, Seq: uint64(i + 1), Bytes: size}
		e.stores[0].AppendShared(env, logged[i], 0)
	}
	ev := &faultEvent{chans: []recoveryChan{{src: 0, dst: 1, comm: comm, seen: 0, sent: records}}}
	replay := func() {
		if err := e.injectReplays(ev); err != nil {
			t.Fatal(err)
		}
	}

	replay()
	if refs := logged[0].Refs(); refs != 3 {
		t.Errorf("a queued replay holds %d references to the logged buffer, want 3 "+
			"(sender, log, message): the replay copied the payload", refs)
	}
	rbuf := make([]byte, size)
	for i := range logged {
		if _, err := w.Proc(1).Recv(rbuf, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
		if rbuf[0] != byte(i) || rbuf[size-1] != byte(i+1) {
			t.Fatalf("replayed record %d delivered the wrong payload", i)
		}
	}
	if refs := logged[0].Refs(); refs != 2 {
		t.Fatalf("after delivery the logged buffer has %d references, want 2 (sender, log)", refs)
	}

	// measure returns allocations and bytes per call, as in
	// checkpoint.TestAllocGuardDeltaEncode: one P, collector off, fn warmed
	// on that P first.
	measure := func(fn func()) (allocs, bytesPerCall float64) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		fn()
		const calls = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(calls, fn)
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (calls + 1)
	}
	allocs, bytes := measure(replay)
	t.Logf("replaying %d records of %d B: %.0f allocs, %.0f B per replay", records, size, allocs, bytes)
	if bytes > 1<<10 {
		t.Errorf("replaying %d records of %d B allocates %.0f B, want <= 1 KiB: a payload copy is back in the replay path",
			records, size, bytes)
	}
	for _, b := range logged {
		b.Release()
	}
}

// TestAllocGuardEpochView pins the cached-view invariant: the engine
// validates each epoch once into an EpochView, and every subsequent group,
// logging or communicator lookup — the per-send Logs check, the per-wave
// GroupOf access, a rank's cluster comm — is a slice read with zero
// allocations. A view that copied the partition per call, or re-interned a
// comm per rank, would trip this instantly.
func TestAllocGuardEpochView(t *testing.T) {
	view, err := NewEpochView(0, []int{0, 0, 1, 1, 2, 2, 3, 3})
	if err != nil {
		t.Fatalf("NewEpochView: %v", err)
	}
	w, err := mpi.NewWorld(8, simnet.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := internClusterComms(w, view); err != nil {
		t.Fatalf("internClusterComms: %v", err)
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
		for g := 0; g < view.Groups(); g++ {
			sum += view.Comm(g).Size()
		}
	})
	if perOp != 0 {
		t.Errorf("cached epoch view allocates %.1f objects per access batch, want 0: "+
			"a per-call copy returned to the hot path", perOp)
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

// TestAllocGuardCollectives pins the allocation-free collective path. Every
// collective fragment is a point-to-point round of the same runtime, so once
// the per-rank state is warm — the channels, the match-index rings, the
// internal request free list and the float64 scratch — a steady-state
// AllreduceF64 or Barrier allocates nothing per rank: both measure 0.005 to
// 0.01 (World.Run's own cost does not cancel exactly), and the ceiling sits
// just above that. Before the collective path was made allocation-free it
// measured about 14 objects per rank per allreduce and 24 per barrier here:
// a fresh request per fragment, fresh working vectors per reduction, and a
// match-index key per peer per invocation that was never dropped.
func TestAllocGuardCollectives(t *testing.T) {
	skipAllocGuardUnderRace(t)
	const ranks, rounds, ceiling = 64, 50, 0.1
	w, err := mpi.NewWorld(ranks, simnet.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	pol := NewCoordinatedProtocol(ranks)
	for r := 0; r < ranks; r++ {
		w.Proc(r).SetProtocol(NewSPBC(r, pol, w.Cost(), logstore.New()))
	}
	send := []float64{1, 2, 3, 4}
	recv := make([][]float64, ranks) // per rank: ranks run concurrently
	for r := range recv {
		recv[r] = make([]float64, len(send))
	}
	ops := []struct {
		name string
		op   func(p *mpi.Proc) error
	}{
		{"AllreduceF64", func(p *mpi.Proc) error { return p.AllreduceF64(send, recv[p.Rank()], mpi.OpSum, nil) }},
		{"Barrier", func(p *mpi.Proc) error { return p.Barrier(nil) }},
	}
	for _, o := range ops {
		// allocs is one world run of n invocations on every rank; the
		// difference of two run lengths cancels World.Run's fixed cost.
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(3, func() {
				err := w.Run(func(p *mpi.Proc) error {
					for i := 0; i < n; i++ {
						if err := o.op(p); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
		allocs(rounds) // warm every rank's channels, rings, free list and scratch
		got := (allocs(rounds) - allocs(0)) / (rounds * ranks)
		t.Logf("%s: %.3f allocs per rank per call on %d ranks", o.name, got, ranks)
		if got > ceiling {
			t.Errorf("%s allocates %.2f objects per rank per call, want <= %.1f: "+
				"a per-fragment request, working vector or match-index key is back", o.name, got, ceiling)
		}
	}
}

// TestAllocGuardRingStep pins the steady-state halo step of the ring kernel
// on the native process: 8 objects per rank per step, the four request
// headers and the four 8-byte halo buffers the kernel builds. It measured 10
// while the kernel completed its requests with Waitall, whose status slice
// (and the request slice passed through the interface) every kernel
// discarded.
func TestAllocGuardRingStep(t *testing.T) {
	skipAllocGuardUnderRace(t)
	const ranks, steps, ceiling = 8, 200, 8.5
	w, err := mpi.NewWorld(ranks, simnet.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]model.App, ranks)
	for r := range apps {
		apps[r] = app.NewRing(16, 0)()
	}
	if err := w.Run(func(p *mpi.Proc) error { return apps[p.Rank()].Init(model.NewNativeProcess(p)) }); err != nil {
		t.Fatal(err)
	}
	// allocs is one world run of n steps on every rank; the difference of
	// two run lengths cancels World.Run's fixed cost.
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			err := w.Run(func(p *mpi.Proc) error {
				for i := 0; i < n; i++ {
					if err := apps[p.Rank()].Step(i); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(steps) // warm every rank's channels, rings and pools
	got := (allocs(steps) - allocs(0)) / (steps * ranks)
	t.Logf("ring step: %.3f allocs per rank on %d ranks", got, ranks)
	if got > ceiling {
		t.Errorf("ring step allocates %.2f objects per rank, want <= %.1f: "+
			"a per-step status or request slice is back", got, ceiling)
	}
}
