package logstore

import (
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

func TestAppendGetRange(t *testing.T) {
	s := New()
	s.Append(rec(1, 0, 1, "aa"))
	s.Append(rec(1, 0, 2, "bbb"))
	s.Append(rec(2, 0, 1, "c"))
	s.Append(rec(1, 5, 1, "dd")) // same peer, different communicator

	if got, ok := s.Get(1, 0, 2); !ok || string(got.Payload) != "bbb" {
		t.Fatalf("Get(1,0,2) = %v %v", got, ok)
	}
	if _, ok := s.Get(1, 0, 9); ok {
		t.Fatal("missing seq should not be found")
	}
	if _, ok := s.Get(7, 0, 1); ok {
		t.Fatal("missing channel should not be found")
	}
	r := s.Range(1, 0, 2)
	if len(r) != 1 || r[0].Env.Seq != 2 {
		t.Fatalf("Range(1,0,2) = %v", r)
	}
	if len(s.Range(1, 0, 1)) != 2 {
		t.Fatal("Range from 1 should return both records")
	}
	if s.Range(9, 9, 0) != nil {
		t.Fatal("Range on a missing channel should be nil")
	}
	if s.MaxSeq(1, 0) != 2 || s.MaxSeq(2, 0) != 1 || s.MaxSeq(3, 3) != 0 {
		t.Fatal("MaxSeq wrong")
	}
	if len(s.Channels()) != 3 {
		t.Fatalf("expected 3 channels, got %d", len(s.Channels()))
	}
}

func TestAccountingAndDuplicates(t *testing.T) {
	s := New()
	s.Append(rec(1, 0, 1, "aaaa"))
	s.Append(rec(1, 0, 2, "bb"))
	if s.CumulativeBytes() != 6 || s.RetainedBytes() != 6 {
		t.Fatalf("bytes: cum=%d ret=%d", s.CumulativeBytes(), s.RetainedBytes())
	}
	// Re-logging the same seq (recovery re-execution) must be a no-op.
	s.Append(rec(1, 0, 1, "aaaa"))
	if s.CumulativeBytes() != 6 || s.CumulativeCount() != 2 || s.RetainedCount() != 2 {
		t.Fatalf("duplicate append changed accounting: %s", s)
	}
}

func TestTruncate(t *testing.T) {
	s := New()
	for i := 1; i <= 5; i++ {
		s.Append(rec(1, 0, uint64(i), "xy"))
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
	if got := s.Range(1, 0, 0); len(got) != 2 || got[0].Env.Seq != 4 {
		t.Fatalf("range after truncate: %v", got)
	}
	if s.Truncate(9, 9, 10) != 0 {
		t.Fatal("truncating a missing channel should drop nothing")
	}
}

func TestSnapshotRestoreIndependence(t *testing.T) {
	s := New()
	s.Append(rec(1, 0, 1, "orig"))
	snap := s.Snapshot()
	s.Append(rec(1, 0, 2, "after-snap"))
	if snap.RetainedCount() != 1 {
		t.Fatal("snapshot must not see later appends")
	}
	// Mutating the snapshot's payload must not affect the original.
	r, _ := snap.Get(1, 0, 1)
	r.Payload[0] = 'X'
	orig, _ := s.Get(1, 0, 1)
	if orig.Payload[0] == 'X' {
		t.Fatal("snapshot shares payload memory with the original store")
	}

	var restored Store
	restored.RestoreFrom(snap)
	if restored.RetainedCount() != 1 || restored.MaxSeq(1, 0) != 1 {
		t.Fatalf("restored store content wrong: %s", &restored)
	}
}

func TestOutOfOrderAppendSorted(t *testing.T) {
	s := New()
	s.Append(rec(1, 0, 3, "c"))
	s.Append(rec(1, 0, 1, "a"))
	s.Append(rec(1, 0, 2, "b"))
	got := s.Range(1, 0, 0)
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
	f := func(seqs []uint8, from uint8) bool {
		s := New()
		seen := map[uint64]bool{}
		for _, q := range seqs {
			seq := uint64(q%50) + 1
			s.Append(rec(1, 0, seq, "p"))
			seen[seq] = true
		}
		got := s.Range(1, 0, uint64(from))
		// Ordered, unique, and exactly the logged seqs >= from.
		want := 0
		for seq := range seen {
			if seq >= uint64(from) {
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
			if !seen[r.Env.Seq] || r.Env.Seq < uint64(from) {
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
			s.Append(Record{
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
// locate's binary search (Get, Range, Truncate) stays correct, and must still
// deduplicate re-logged records wherever they land.
func TestOutOfOrderInsertionDeep(t *testing.T) {
	s := New()
	for _, seq := range []uint64{1, 2, 5, 6, 7} {
		s.Append(rec(1, 0, seq, "x"))
	}
	s.Append(rec(1, 0, 3, "early")) // lands two positions before the tail
	s.Append(rec(1, 0, 4, "early"))

	got := s.Range(1, 0, 0)
	if len(got) != 7 {
		t.Fatalf("expected 7 records, got %d", len(got))
	}
	for i, r := range got {
		if r.Env.Seq != uint64(i+1) {
			t.Fatalf("records not in seq order after deep out-of-order insert: %v", got)
		}
	}
	for seq := uint64(1); seq <= 7; seq++ {
		if _, ok := s.Get(1, 0, seq); !ok {
			t.Fatalf("Get(%d) failed: binary search broken by out-of-order insert", seq)
		}
	}

	// Re-logging any position — head, middle, tail — must be a no-op.
	before := s.CumulativeCount()
	for _, seq := range []uint64{1, 3, 4, 7} {
		s.Append(rec(1, 0, seq, "dup"))
	}
	if s.CumulativeCount() != before {
		t.Fatalf("duplicate re-log changed accounting: %d -> %d", before, s.CumulativeCount())
	}
	if r, _ := s.Get(1, 0, 3); string(r.Payload) != "early" {
		t.Fatalf("duplicate re-log overwrote content: %q", r.Payload)
	}

	// Truncation in the repaired middle must drop exactly the prefix.
	if dropped := s.Truncate(1, 0, 4); dropped != 4 {
		t.Fatalf("Truncate(<=4) dropped %d records, want 4", dropped)
	}
	if s.RetainedCount() != 3 || s.MaxSeq(1, 0) != 7 {
		t.Fatalf("post-truncate state wrong: %s", s)
	}
}

// AppendShared must retain the caller's pooled buffer instead of copying it,
// retain nothing on duplicates, and give the reference back on Truncate.
func TestAppendSharedRetainsAndReleases(t *testing.T) {
	s := New()
	payload := []byte("shared payload")
	pb := buf.Copy(payload)
	env := rec(1, 0, 1, string(payload)).Env

	s.AppendShared(env, pb, 0.5)
	if pb.Refs() != 2 {
		t.Fatalf("log must retain the buffer: refs = %d, want 2", pb.Refs())
	}
	if got, ok := s.Get(1, 0, 1); !ok || string(got.Payload) != string(payload) {
		t.Fatalf("Get after AppendShared = %q, %v", got.Payload, ok)
	}
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

// The sharded store: concurrent appenders on distinct channels, a reader and
// a garbage collector must not interfere (run under -race in CI).
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
				s.Append(rec(dst, 0, uint64(seq), "abcdefgh"))
			}
		}()
	}
	wg.Add(2)
	go func() { // recovery-replay style reader
		defer wg.Done()
		for i := 0; i < 100; i++ {
			for dst := 1; dst <= 4; dst++ {
				recs := s.Range(dst, 0, 1)
				for j := 1; j < len(recs); j++ {
					if recs[j].Env.Seq <= recs[j-1].Env.Seq {
						t.Error("concurrent Range returned unsorted records")
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
		if n := uint64(len(s.Range(dst, 0, 1))); n != perChannel {
			t.Fatalf("channel %d lost records: %d", dst, n)
		}
		total += perChannel
	}
	total += uint64(len(s.Range(1, 0, 1)))
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
// the same records, in the same channel/sequence order, as the copying
// Range-based export.
func TestSnapshotSharedOrderMatchesRange(t *testing.T) {
	s := New()
	for _, r := range []Record{
		rec(2, 0, 2, "d"), rec(1, 0, 1, "a"), rec(2, 0, 1, "c"),
		rec(1, 0, 2, "b"), rec(1, 1, 1, "e"),
	} {
		s.Append(r)
	}
	var want []Record
	for _, key := range s.Channels() {
		want = append(want, s.Range(key.Peer, key.Comm, 0)...)
	}
	got, refs := s.SnapshotShared()
	if len(got) != len(want) {
		t.Fatalf("shared snapshot has %d records, Range export %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Env != got[i].Env || string(want[i].Payload) != string(got[i].Payload) ||
			want[i].SendTime != got[i].SendTime {
			t.Fatalf("record %d differs: %+v vs %+v", i, want[i], got[i])
		}
	}
	for _, r := range refs {
		r.Release()
	}
}
