package core

import (
	"fmt"
	"testing"

	"repro/internal/logstore"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Steady-state eager-send benchmarks: one rank sends, the other receives, on
// a two-rank world. The SPBC variant places the ranks in different clusters so
// every message is sender-logged — the paper's only failure-free overhead —
// and truncates the log periodically, as checkpoint-wave GC does in a real
// run, so the measurement reflects the steady state rather than unbounded log
// growth. Names are benchstat-friendly: compare runs with
// `benchstat old.txt new.txt`.

// benchGCPeriod mimics the checkpoint cadence: every that many sends the
// destination "checkpoints" and the sender's log is truncated.
const benchGCPeriod = 256

// newBenchPair returns ranks 0 and 1 of a two-rank world running pol, or the
// native runtime when pol is nil; store is rank 0's sender log (nil when
// native).
func newBenchPair(tb testing.TB, pol Policy) (p0, p1 *mpi.Proc, store *logstore.Store) {
	tb.Helper()
	w, err := mpi.NewWorld(2, simnet.DefaultCostModel())
	if err != nil {
		tb.Fatal(err)
	}
	p0, p1 = w.Proc(0), w.Proc(1)
	if pol != nil {
		store = logstore.New()
		p0.SetProtocol(NewSPBC(0, pol, w.Cost(), store))
		p1.SetProtocol(NewSPBC(1, pol, w.Cost(), logstore.New()))
	}
	return p0, p1, store
}

// runEagerSteadyState performs n send/recv rounds from p0 to p1 with periodic
// log GC, exactly like the benchmark loop, so the allocation-regression tests
// measure the same path the benchmarks do.
func runEagerSteadyState(p0, p1 *mpi.Proc, store *logstore.Store, payload, rbuf []byte, n int) error {
	for i := 0; i < n; i++ {
		if err := p0.Send(payload, 1, 0, nil); err != nil {
			return err
		}
		if _, err := p1.Recv(rbuf, 0, 0, nil); err != nil {
			return err
		}
		if store != nil {
			// GC cadence follows the channel sequence number so it holds
			// across separate calls (the alloc guards run short batches).
			if seq := p0.OutSeq(1, 0); seq%benchGCPeriod == 0 {
				store.Truncate(1, 0, seq)
			}
		}
	}
	return nil
}

func benchEagerSend(b *testing.B, pol Policy, size int) {
	p0, p1, store := newBenchPair(b, pol)
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	rbuf := make([]byte, size)
	// Warm up channel state and buffer pools before measuring.
	if err := runEagerSteadyState(p0, p1, store, payload, rbuf, 2*benchGCPeriod); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	if err := runEagerSteadyState(p0, p1, store, payload, rbuf, b.N); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEagerSendNative(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) { benchEagerSend(b, nil, size) })
	}
}

func BenchmarkEagerSendSPBC(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) { benchEagerSend(b, NewSPBCProtocol([]int{0, 1}), size) })
	}
}

// newTracedPair returns ranks 0 and 1 of a traced world of the given size.
func newTracedPair(tb testing.TB, ranks int) (p0, p1 *mpi.Proc) {
	tb.Helper()
	w, err := mpi.NewWorld(ranks, simnet.DefaultCostModel(), mpi.WithRecorder(trace.NewRecorder(ranks)))
	if err != nil {
		tb.Fatal(err)
	}
	return w.Proc(0), w.Proc(1)
}

// BenchmarkEagerSendTraced measures the same path with a trace recorder
// attached; the delta against BenchmarkEagerSendNative is the full cost of
// tracing: one clock-free event append per send and per deliver, plus the
// payload digests. Without a recorder that cost is zero, and with one it does
// not grow with the world — the guard tests in alloc_guard_test.go pin both.
func BenchmarkEagerSendTraced(b *testing.B) {
	p0, p1 := newTracedPair(b, 2)
	payload := make([]byte, 1024)
	rbuf := make([]byte, 1024)
	if err := runEagerSteadyState(p0, p1, nil, payload, rbuf, 64); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	if err := runEagerSteadyState(p0, p1, nil, payload, rbuf, b.N); err != nil {
		b.Fatal(err)
	}
}
