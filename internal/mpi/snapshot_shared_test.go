package mpi

import (
	"reflect"
	"testing"
)

// TestSnapshotChannelsShared pins the zero-copy capture contract of the
// channel snapshot: the queued messages in arrival order with their
// envelopes and channel bookkeeping, payloads aliasing the runtime's pooled
// buffers, one retained reference per queued message, and content that
// survives delivery of the underlying message until the references are
// released.
func TestSnapshotChannelsShared(t *testing.T) {
	w := testWorld(t, 2)
	p0, p1 := w.Proc(0), w.Proc(1)

	// Two eager sends park in rank 1's unexpected queue (no receive posted).
	if err := p0.Send([]byte("hello"), 1, 7, nil); err != nil {
		t.Fatal(err)
	}
	if err := p0.Send([]byte("world!"), 1, 7, nil); err != nil {
		t.Fatal(err)
	}

	shared, refs, err := p1.SnapshotChannelsShared()
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.Queued) != 2 {
		t.Fatalf("snapshot queues %d messages, want 2", len(shared.Queued))
	}
	for i, want := range []string{"hello", "world!"} {
		q := shared.Queued[i]
		if env := q.Env; env.Source != 0 || env.Dest != 1 || env.Tag != 7 || env.Seq != uint64(i+1) || env.Bytes != len(want) {
			t.Fatalf("queued message %d envelope = %+v", i, env)
		}
		if string(q.Payload) != want || q.Replayed {
			t.Fatalf("queued message %d = %q (replayed %v), want %q", i, q.Payload, q.Replayed, want)
		}
	}
	if want := map[ChanKey]InChannelState{{Peer: 0}: {MaxSeqSeen: 2}}; !reflect.DeepEqual(shared.In, want) {
		t.Fatalf("snapshot In = %+v, want %+v", shared.In, want)
	}
	if len(refs) != 2 {
		t.Fatalf("snapshot holds %d refs, want 2 (one per queued message)", len(refs))
	}
	for i, r := range refs {
		if &shared.Queued[i].Payload[0] != &r.Bytes()[0] {
			t.Fatalf("queued payload %d does not alias the pooled buffer (copied?)", i)
		}
		if r.Refs() < 2 {
			t.Fatalf("queued buffer %d has %d refs, want >= 2 (runtime + snapshot)", i, r.Refs())
		}
	}

	// Deliver both messages: the runtime releases its references, the
	// snapshot's keep the payload bytes valid.
	rbuf := make([]byte, 8)
	for i := 0; i < 2; i++ {
		if _, err := p1.Recv(rbuf, 0, 7, nil); err != nil {
			t.Fatal(err)
		}
	}
	if string(shared.Queued[0].Payload) != "hello" || string(shared.Queued[1].Payload) != "world!" {
		t.Fatalf("shared payloads corrupted after delivery: %q %q",
			shared.Queued[0].Payload, shared.Queued[1].Payload)
	}
	for _, r := range refs {
		r.Release()
	}
}

// TestSnapshotChannelsSharedEmptyQueue pins that an empty unexpected queue
// yields no references.
func TestSnapshotChannelsSharedEmptyQueue(t *testing.T) {
	w := testWorld(t, 2)
	snap, refs, err := w.Proc(0).SnapshotChannelsShared()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 || len(snap.Queued) != 0 {
		t.Fatalf("empty queue snapshot: %d refs, %d queued", len(refs), len(snap.Queued))
	}
}
