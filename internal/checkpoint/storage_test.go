package checkpoint

import (
	"reflect"
	"testing"

	"repro/internal/buf"
	"repro/internal/mpi"
)

// TestMemoryStorageLoadAliasing is the aliasing regression for the
// shared-image store: Load hands out a decoded copy, so mutating every part
// of a loaded checkpoint — app state, log payloads, queued payloads, maps —
// must not corrupt the stored image or other loads.
func TestMemoryStorageLoadAliasing(t *testing.T) {
	st := NewMemoryStorage()
	if err := st.Save(sampleCheckpoint(0)); err != nil {
		t.Fatal(err)
	}
	pristine, _, err := st.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := st.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	// Deface everything reachable.
	loaded.AppState[0] ^= 0xff
	loaded.Logs[0].Payload[0] ^= 0xff
	loaded.Channels.Queued[0].Payload[0] ^= 0xff
	loaded.Channels.Out[mpi.ChanKey{Peer: 1, Comm: 0}] = 999
	loaded.Channels.In[mpi.ChanKey{Peer: 2, Comm: 0}] = mpi.InChannelState{}
	loaded.Channels.CollSeq[0] = 999
	loaded.Iteration = -42

	again, _, err := st.Load(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, pristine) {
		t.Fatalf("mutating a loaded checkpoint corrupted the store:\nwant %+v\ngot  %+v", pristine, again)
	}
}

// TestMemoryStorageSharesImageNotStructures pins that two loads are fully
// independent structures (no shared backing arrays).
func TestMemoryStorageSharesImageNotStructures(t *testing.T) {
	st := NewMemoryStorage()
	if err := st.Save(sampleCheckpoint(3)); err != nil {
		t.Fatal(err)
	}
	a, _, _ := st.Load(3)
	b, _, _ := st.Load(3)
	a.AppState[0] = 0x55
	if b.AppState[0] == 0x55 {
		t.Fatal("two loads share AppState backing memory")
	}
	a.Logs[0].Payload[0] = 0x55
	if b.Logs[0].Payload[0] == 0x55 {
		t.Fatal("two loads share log payload backing memory")
	}
}

// captureCheckpoint builds a capture-form checkpoint whose payloads alias
// retained pooled buffers, as the engine's in-barrier capture does.
func captureCheckpoint(rank int) (*Checkpoint, []*buf.Buffer) {
	logPayload := buf.Copy([]byte("xy"))
	queuedPayload := buf.Copy([]byte("abc"))
	cp := sampleCheckpoint(rank)
	cp.Logs[0].Payload = logPayload.Bytes()
	cp.Channels.Queued[0].Payload = queuedPayload.Bytes()
	refs := []*buf.Buffer{logPayload, queuedPayload}
	cp.HoldShared(refs)
	return cp, refs
}

// TestCaptureFormSaveAndRelease pins the capture-form contract: a checkpoint
// holding retained pooled buffers encodes to the same image as the
// materialized equivalent, and ReleaseShared drops exactly the held
// references.
func TestCaptureFormSaveAndRelease(t *testing.T) {
	cp, refs := captureCheckpoint(7)
	if !cp.Shared() {
		t.Fatal("capture-form checkpoint must report Shared")
	}
	want, err := Encode(sampleCheckpoint(7))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("capture-form and materialized checkpoints encode differently")
	}
	st := NewMemoryStorage()
	if err := st.Save(cp); err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if r.Refs() != 1 {
			t.Fatalf("ref count %d before release, want 1 (storage must keep the image, not the buffers)", r.Refs())
		}
	}
	cp.ReleaseShared()
	if cp.Shared() {
		t.Fatal("ReleaseShared must clear the capture form")
	}
	back, ok, err := st.Load(7)
	if err != nil || !ok {
		t.Fatalf("load after release: %v %v", ok, err)
	}
	if string(back.Logs[0].Payload) != "xy" || string(back.Channels.Queued[0].Payload) != "abc" {
		t.Fatal("stored image depends on released buffers")
	}
}
