package logstore

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/buf"
	"repro/internal/mpi"
)

func rec(dst, comm int, seq uint64, payload string) Record {
	return Record{
		Env: mpi.Envelope{
			Source: 0,
			Dest:   dst,
			CommID: comm,
			Tag:    1,
			Seq:    seq,
			Bytes:  len(payload),
		},
		Payload:  []byte(payload),
		SendTime: float64(seq),
	}
}

// appendRec logs r the way the send path does: the payload is copied once
// into a pooled buffer, the store retains it, and the sender drops its own
// reference.
func appendRec(s *Store, r Record) {
	pb := buf.Copy(r.Payload)
	s.AppendShared(r.Env, pb, r.SendTime)
	pb.Release()
}

// replayed returns heap copies of the records Replay hands over on the
// channel to (dst, comm) in (seen, sent], releasing each reference it is
// given.
func replayed(s *Store, dst, comm int, seen, sent uint64) []Record {
	var out []Record
	_ = s.Replay(dst, comm, seen, sent, func(env mpi.Envelope, p *buf.Buffer) error {
		out = append(out, Record{Env: env, Payload: append([]byte(nil), p.Bytes()...)})
		p.Release()
		return nil
	})
	return out
}

const all = math.MaxUint64 // a replay bound above every logged seq

func TestAppendGetRange(t *testing.T) {
	s := New()
	appendRec(s, rec(1, 0, 1, "aa"))
	appendRec(s, rec(1, 0, 2, "bbb"))
	appendRec(s, rec(2, 0, 1, "c"))
	appendRec(s, rec(1, 5, 1, "dd")) // same peer, different communicator

	if got := replayed(s, 1, 0, 1, 2); len(got) != 1 || string(got[0].Payload) != "bbb" {
		t.Fatalf("replay (1,2] on (1,0) = %v", got)
	}
	if got := replayed(s, 1, 0, 2, 9); len(got) != 0 {
		t.Fatalf("replay above the tail = %v, want nothing", got)
	}
	if got := replayed(s, 7, 0, 0, all); got != nil {
		t.Fatalf("replay of a missing channel = %v, want nothing", got)
	}
	if got := replayed(s, 1, 0, 2, 1); got != nil {
		t.Fatalf("replay of an empty range = %v, want nothing", got)
	}
	if got := replayed(s, 1, 0, 0, all); len(got) != 2 || got[0].Env.Seq != 1 || got[1].Env.Seq != 2 {
		t.Fatalf("replay of the whole channel = %v", got)
	}
	if got := replayed(s, 1, 5, 0, 1); len(got) != 1 || string(got[0].Payload) != "dd" {
		t.Fatalf("replay on communicator 5 = %v", got)
	}
	if len(s.Channels()) != 3 {
		t.Fatalf("expected 3 channels, got %d", len(s.Channels()))
	}
}

func TestAccountingAndDuplicates(t *testing.T) {
	s := New()
	appendRec(s, rec(1, 0, 1, "aaaa"))
	appendRec(s, rec(1, 0, 2, "bb"))
	if s.CumulativeBytes() != 6 || s.RetainedBytes() != 6 {
		t.Fatalf("bytes: cum=%d ret=%d", s.CumulativeBytes(), s.RetainedBytes())
	}
	// Re-logging the same seq (recovery re-execution) must be a no-op.
	appendRec(s, rec(1, 0, 1, "aaaa"))
	if s.CumulativeBytes() != 6 || s.CumulativeCount() != 2 || s.RetainedCount() != 2 {
		t.Fatalf("duplicate append changed accounting: %s", s)
	}
}

func TestTruncate(t *testing.T) {
	s := New()
	for i := 1; i <= 5; i++ {
		appendRec(s, rec(1, 0, uint64(i), "xy"))
	}
	dropped := s.Truncate(1, 0, 3)
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	if s.RetainedBytes() != 4 || s.RetainedCount() != 2 {
		t.Fatalf("retained after truncate: %s", s)
	}
	if s.CumulativeBytes() != 10 {
		t.Fatalf("cumulative must not shrink: %d", s.CumulativeBytes())
	}
	if got := replayed(s, 1, 0, 0, all); len(got) != 2 || got[0].Env.Seq != 4 {
		t.Fatalf("replay after truncate: %v", got)
	}
	if s.Truncate(9, 9, 10) != 0 {
		t.Fatal("truncating a missing channel should drop nothing")
	}
}

// TestSnapshotRestoreIndependence pins Restore, the path a failed rank's log
// takes back from its checkpoint: the store holds exactly the records it is
// given, in sequence order with duplicates dropped, and its retained and
// cumulative counters both equal their volume; the references of the
// replaced content are released; and the restored payloads are the store's
// own pooled copies, aliasing neither the input slices nor the buffers of
// the snapshot they came from.
func TestSnapshotRestoreIndependence(t *testing.T) {
	src := New()
	appendRec(src, rec(1, 0, 1, "orig"))
	appendRec(src, rec(2, 0, 1, "other"))
	recs, refs := src.SnapshotShared()

	// The store being restored holds a longer history and other content.
	dst := New()
	old := buf.Copy([]byte("pre-failure"))
	dst.AppendShared(rec(3, 0, 1, "pre-failure").Env, old, 0)
	for seq := uint64(1); seq <= 4; seq++ {
		appendRec(dst, rec(1, 0, seq, "later"))
	}
	dst.Truncate(1, 0, 2) // cumulative now exceeds retained
	if old.Refs() != 2 {
		t.Fatalf("refs before restore = %d, want 2 (caller + store)", old.Refs())
	}

	// A decoded checkpoint's log: heap payloads, one duplicate, out of order.
	decoded := []Record{rec(1, 0, 2, "second"), recs[0], rec(1, 0, 2, "dup"), recs[1]}
	decoded[1].Payload = append([]byte(nil), recs[0].Payload...)
	dst.Restore(decoded)

	if old.Refs() != 1 {
		t.Fatalf("refs after restore = %d, want 1: Restore must release the references it replaces", old.Refs())
	}
	const volume uint64 = uint64(len("second") + len("orig") + len("other"))
	if dst.RetainedCount() != 3 || dst.CumulativeCount() != 3 ||
		dst.RetainedBytes() != volume || dst.CumulativeBytes() != volume {
		t.Fatalf("restored counters %s (count %d/%d), want retained = cumulative = 3 records, %d B",
			dst, dst.RetainedCount(), dst.CumulativeCount(), volume)
	}
	if got := replayed(dst, 3, 0, 0, all); got != nil {
		t.Fatalf("a channel absent from the checkpoint survived the restore: %v", got)
	}

	// Overwrite every input payload: the restored log must not change.
	for i := range decoded {
		for j := range decoded[i].Payload {
			decoded[i].Payload[j] = 'X'
		}
	}
	for _, r := range refs {
		r.Release()
	}
	src.Truncate(1, 0, 1)
	src.Truncate(2, 0, 1)
	got := replayed(dst, 1, 0, 0, all)
	if len(got) != 2 || got[0].Env.Seq != 1 || string(got[0].Payload) != "orig" ||
		got[1].Env.Seq != 2 || string(got[1].Payload) != "second" {
		t.Fatalf("restored channel (1,0) = %v, want seq 1 %q, seq 2 %q", got, "orig", "second")
	}
	if got := replayed(dst, 2, 0, 0, all); len(got) != 1 || string(got[0].Payload) != "other" {
		t.Fatalf("restored channel (2,0) = %v", got)
	}

	// The restored store keeps logging and accounting from there.
	appendRec(dst, rec(2, 0, 2, "next"))
	if dst.CumulativeBytes() != volume+4 || dst.RetainedCount() != 4 {
		t.Fatalf("append after restore: %s", dst)
	}

	var empty Store
	empty.Restore(nil)
	if empty.RetainedCount() != 0 || empty.CumulativeBytes() != 0 || len(empty.Channels()) != 0 {
		t.Fatalf("restoring an empty log: %s", &empty)
	}
}

func TestOutOfOrderAppendSorted(t *testing.T) {
	s := New()
	appendRec(s, rec(1, 0, 3, "c"))
	appendRec(s, rec(1, 0, 1, "a"))
	appendRec(s, rec(1, 0, 2, "b"))
	got := replayed(s, 1, 0, 0, all)
	if len(got) != 3 {
		t.Fatalf("expected 3 records, got %d", len(got))
	}
	for i, r := range got {
		if r.Env.Seq != uint64(i+1) {
			t.Fatalf("records not in seq order: %v", got)
		}
	}
}

func TestPropertyRangeOrderedAndComplete(t *testing.T) {
	f := func(seqs []uint8, seen, sent uint8) bool {
		s := New()
		logged := map[uint64]bool{}
		for _, q := range seqs {
			seq := uint64(q%50) + 1
			appendRec(s, rec(1, 0, seq, "p"))
			logged[seq] = true
		}
		lo, hi := uint64(seen%60), uint64(sent%60)
		got := replayed(s, 1, 0, lo, hi)
		// Ordered, unique, and exactly the logged seqs in (seen, sent].
		want := 0
		for seq := range logged {
			if seq > lo && seq <= hi {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Env.Seq <= got[i-1].Env.Seq {
				return false
			}
		}
		for _, r := range got {
			if !logged[r.Env.Seq] || r.Env.Seq <= lo || r.Env.Seq > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAccountingConsistent(t *testing.T) {
	f := func(sizes []uint8) bool {
		s := New()
		var total uint64
		for i, sz := range sizes {
			payload := make([]byte, int(sz))
			appendRec(s, Record{
				Env:     mpi.Envelope{Dest: 1, CommID: 0, Seq: uint64(i + 1), Bytes: len(payload)},
				Payload: payload,
			})
			total += uint64(sz)
		}
		return s.CumulativeBytes() == total && s.RetainedBytes() == total &&
			s.CumulativeCount() == uint64(len(sizes))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The repaired insertion path: a sequence number that lands more than one
// position early must be placed by binary search, keeping the slice sorted so
// the binary searches of Replay and Truncate stay correct, and must still
// deduplicate re-logged records wherever they land.
func TestOutOfOrderInsertionDeep(t *testing.T) {
	s := New()
	for _, seq := range []uint64{1, 2, 5, 6, 7} {
		appendRec(s, rec(1, 0, seq, "x"))
	}
	appendRec(s, rec(1, 0, 3, "early")) // lands two positions before the tail
	appendRec(s, rec(1, 0, 4, "early"))

	got := replayed(s, 1, 0, 0, all)
	if len(got) != 7 {
		t.Fatalf("expected 7 records, got %d", len(got))
	}
	for i, r := range got {
		if r.Env.Seq != uint64(i+1) {
			t.Fatalf("records not in seq order after deep out-of-order insert: %v", got)
		}
	}
	for seq := uint64(1); seq <= 7; seq++ {
		if got := replayed(s, 1, 0, seq-1, seq); len(got) != 1 || got[0].Env.Seq != seq {
			t.Fatalf("replay (%d,%d] = %v: binary search broken by out-of-order insert", seq-1, seq, got)
		}
	}

	// Re-logging any position — head, middle, tail — must be a no-op.
	before := s.CumulativeCount()
	for _, seq := range []uint64{1, 3, 4, 7} {
		appendRec(s, rec(1, 0, seq, "dup"))
	}
	if s.CumulativeCount() != before {
		t.Fatalf("duplicate re-log changed accounting: %d -> %d", before, s.CumulativeCount())
	}
	if r := replayed(s, 1, 0, 2, 3); string(r[0].Payload) != "early" {
		t.Fatalf("duplicate re-log overwrote content: %q", r[0].Payload)
	}

	// Truncation in the repaired middle must drop exactly the prefix.
	if dropped := s.Truncate(1, 0, 4); dropped != 4 {
		t.Fatalf("Truncate(<=4) dropped %d records, want 4", dropped)
	}
	if got := replayed(s, 1, 0, 0, all); s.RetainedCount() != 3 || len(got) != 3 || got[2].Env.Seq != 7 {
		t.Fatalf("post-truncate state wrong: %s, replay %v", s, got)
	}
}

// AppendShared must retain the caller's pooled buffer instead of copying it,
// retain nothing on duplicates, and give the reference back on Truncate;
// Replay must hand out that same buffer with a reference of its own.
func TestAppendSharedRetainsAndReleases(t *testing.T) {
	s := New()
	payload := []byte("shared payload")
	pb := buf.Copy(payload)
	env := rec(1, 0, 1, string(payload)).Env

	s.AppendShared(env, pb, 0.5)
	if pb.Refs() != 2 {
		t.Fatalf("log must retain the buffer: refs = %d, want 2", pb.Refs())
	}
	var handed *buf.Buffer
	if err := s.Replay(1, 0, 0, 1, func(_ mpi.Envelope, p *buf.Buffer) error {
		handed = p
		return nil
	}); err != nil || handed != pb {
		t.Fatalf("Replay handed %p (err %v), want the logged buffer %p", handed, err, pb)
	}
	if pb.Refs() != 3 {
		t.Fatalf("Replay must hand out a reference of its own: refs = %d, want 3", pb.Refs())
	}
	handed.Release()
	if s.CumulativeBytes() != uint64(len(payload)) {
		t.Fatalf("cumulative bytes = %d, want %d", s.CumulativeBytes(), len(payload))
	}

	// A re-logged duplicate must not take another reference.
	s.AppendShared(env, pb, 0.7)
	if pb.Refs() != 2 {
		t.Fatalf("duplicate AppendShared changed refs to %d", pb.Refs())
	}

	// Log GC releases the store's reference; the caller's remains valid.
	if dropped := s.Truncate(1, 0, 1); dropped != 1 {
		t.Fatalf("Truncate dropped %d, want 1", dropped)
	}
	if pb.Refs() != 1 {
		t.Fatalf("Truncate must release the log's reference: refs = %d, want 1", pb.Refs())
	}
	if string(pb.Bytes()) != string(payload) {
		t.Fatalf("caller's buffer corrupted after GC: %q", pb.Bytes())
	}
	pb.Release()
}

// Replay stops at fn's first error and returns it; fn owns every reference
// it was handed, including the one of the failing call.
func TestReplayStopsAtError(t *testing.T) {
	s := New()
	bufs := make([]*buf.Buffer, 3)
	for i := range bufs {
		bufs[i] = buf.Copy([]byte("xyz"))
		s.AppendShared(rec(1, 0, uint64(i+1), "xyz").Env, bufs[i], 0)
	}
	stop := errors.New("stop")
	calls := 0
	err := s.Replay(1, 0, 0, all, func(env mpi.Envelope, p *buf.Buffer) error {
		calls++
		p.Release()
		if env.Seq == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || calls != 2 {
		t.Fatalf("Replay = %v after %d calls, want %v after 2", err, calls, stop)
	}
	for i, b := range bufs {
		if b.Refs() != 2 {
			t.Fatalf("buffer %d refs = %d, want 2 (caller + store)", i, b.Refs())
		}
		b.Release()
	}
}

// The sharded store: concurrent appenders on distinct channels, a replaying
// reader and a garbage collector must not interfere (run under -race in CI).
func TestConcurrentShardedUse(t *testing.T) {
	s := New()
	const perChannel = 200
	var wg sync.WaitGroup
	for dst := 1; dst <= 4; dst++ {
		dst := dst
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 1; seq <= perChannel; seq++ {
				appendRec(s, rec(dst, 0, uint64(seq), "abcdefgh"))
			}
		}()
	}
	wg.Add(2)
	go func() { // recovery-replay style reader
		defer wg.Done()
		for i := 0; i < 100; i++ {
			for dst := 1; dst <= 4; dst++ {
				recs := replayed(s, dst, 0, 0, all)
				for j := 1; j < len(recs); j++ {
					if recs[j].Env.Seq <= recs[j-1].Env.Seq {
						t.Error("concurrent Replay returned unsorted records")
						return
					}
				}
			}
		}
	}()
	go func() { // checkpoint-GC style truncator on one channel
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Truncate(1, 0, uint64(i*2))
		}
	}()
	wg.Wait()
	if got := s.CumulativeCount(); got != 4*perChannel {
		t.Fatalf("cumulative count = %d, want %d", got, 4*perChannel)
	}
	total := uint64(0)
	for dst := 2; dst <= 4; dst++ {
		if n := uint64(len(replayed(s, dst, 0, 0, all))); n != perChannel {
			t.Fatalf("channel %d lost records: %d", dst, n)
		}
		total += perChannel
	}
	total += uint64(len(replayed(s, 1, 0, 0, all)))
	if s.RetainedCount() != total {
		t.Fatalf("retained count = %d, want %d", s.RetainedCount(), total)
	}
}

// TestSnapshotShared pins the zero-copy capture contract: the returned
// records alias the pooled payload buffers (no copy), every buffer gains one
// reference, content survives a concurrent Truncate, and releasing the
// references returns the storage to the pool.
func TestSnapshotShared(t *testing.T) {
	s := New()
	p1 := buf.Copy([]byte("alpha"))
	p2 := buf.Copy([]byte("beta"))
	s.AppendShared(mpi.Envelope{Dest: 1, Seq: 1, Bytes: 5}, p1, 0.1)
	s.AppendShared(mpi.Envelope{Dest: 2, Seq: 1, Bytes: 4}, p2, 0.2)
	p1.Release() // store keeps its own reference
	p2.Release()

	recs, refs := s.SnapshotShared()
	if len(recs) != 2 || len(refs) != 2 {
		t.Fatalf("snapshot = %d records, %d refs; want 2, 2", len(recs), len(refs))
	}
	for i, r := range refs {
		if r.Refs() != 2 {
			t.Fatalf("ref %d count = %d, want 2 (store + snapshot)", i, r.Refs())
		}
		if &recs[i].Payload[0] != &r.Bytes()[0] {
			t.Fatalf("record %d payload does not alias the pooled buffer (copied?)", i)
		}
	}

	// GC both channels: the store's references go away, the snapshot's keep
	// the content alive and intact.
	s.Truncate(1, 0, 1)
	s.Truncate(2, 0, 1)
	if s.RetainedCount() != 0 {
		t.Fatalf("retained count after truncate = %d", s.RetainedCount())
	}
	if string(recs[0].Payload) != "alpha" || string(recs[1].Payload) != "beta" {
		t.Fatalf("snapshot content corrupted after GC: %q %q", recs[0].Payload, recs[1].Payload)
	}
	for i, r := range refs {
		if r.Refs() != 1 {
			t.Fatalf("ref %d count after GC = %d, want 1", i, r.Refs())
		}
		r.Release()
	}
}

// TestSnapshotSharedOrderMatchesRange pins that the shared snapshot yields
// the same records, in the same channel/sequence order, as replaying every
// channel in full.
func TestSnapshotSharedOrderMatchesRange(t *testing.T) {
	s := New()
	for _, r := range []Record{
		rec(2, 0, 2, "d"), rec(1, 0, 1, "a"), rec(2, 0, 1, "c"),
		rec(1, 0, 2, "b"), rec(1, 1, 1, "e"),
	} {
		appendRec(s, r)
	}
	var want []Record
	for _, key := range s.Channels() {
		want = append(want, replayed(s, key.Peer, key.Comm, 0, all)...)
	}
	got, refs := s.SnapshotShared()
	if len(got) != len(want) {
		t.Fatalf("shared snapshot has %d records, replay %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Env != got[i].Env || string(want[i].Payload) != string(got[i].Payload) ||
			got[i].SendTime != float64(got[i].Env.Seq) {
			t.Fatalf("record %d differs: %+v vs %+v", i, want[i], got[i])
		}
	}
	for _, r := range refs {
		r.Release()
	}
}
