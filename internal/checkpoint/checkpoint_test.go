package checkpoint

import (
	"testing"
	"testing/quick"

	"repro/internal/logstore"
	"repro/internal/mpi"
)

func sampleCheckpoint(rank int) *Checkpoint {
	return &Checkpoint{
		Rank:      rank,
		Cluster:   rank / 4,
		Iteration: 10,
		Epoch:     2,
		Time:      1.5,
		AppState:  []byte{1, 2, 3, 4},
		Channels: &mpi.ChannelSnapshot{
			Out: map[mpi.ChanKey]uint64{{Peer: 1, Comm: 0}: 7},
			In:  map[mpi.ChanKey]mpi.InChannelState{{Peer: 2, Comm: 0}: {MaxSeqSeen: 5, Delivered: 5}},
			Queued: []mpi.QueuedMessage{{
				Env:     mpi.Envelope{Source: 2, Dest: rank, Seq: 5, Bytes: 3},
				Payload: []byte("abc"),
			}},
			CollSeq: map[int]uint64{0: 3},
			Clock:   1.5,
		},
		Logs: []logstore.Record{{
			Env:     mpi.Envelope{Source: rank, Dest: 9, Seq: 1, Bytes: 2},
			Payload: []byte("xy"),
		}},
	}
}

func TestValidate(t *testing.T) {
	if err := sampleCheckpoint(0).Validate(); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	var nilCp *Checkpoint
	if err := nilCp.Validate(); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	bad := sampleCheckpoint(0)
	bad.Rank = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative rank accepted")
	}
	bad = sampleCheckpoint(0)
	bad.Channels = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("missing channel snapshot accepted")
	}
	bad = sampleCheckpoint(0)
	bad.Iteration = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative iteration accepted")
	}
}

func TestSize(t *testing.T) {
	cp := sampleCheckpoint(0)
	// 4 app bytes + 3 queued bytes + 2 log bytes
	if got := cp.Size(); got != 9 {
		t.Fatalf("Size = %d, want 9", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cp := sampleCheckpoint(3)
	raw, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rank != 3 || back.Iteration != 10 || string(back.AppState) != string(cp.AppState) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Channels.Out[mpi.ChanKey{Peer: 1, Comm: 0}] != 7 {
		t.Fatal("channel snapshot lost")
	}
	if len(back.Logs) != 1 || string(back.Logs[0].Payload) != "xy" {
		t.Fatal("logs lost")
	}
	if _, err := Decode([]byte("not a gob")); err == nil {
		t.Fatal("garbage must not decode")
	}
}

func TestMemoryStorage(t *testing.T) {
	st := NewMemoryStorage()
	if _, ok, err := st.Load(0); ok || err != nil {
		t.Fatal("empty storage should miss")
	}
	if err := st.Save(sampleCheckpoint(0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(sampleCheckpoint(2)); err != nil {
		t.Fatal(err)
	}
	cp, ok, err := st.Load(0)
	if err != nil || !ok {
		t.Fatalf("load: %v %v", ok, err)
	}
	// Mutating the loaded copy must not affect the stored one.
	cp.AppState[0] = 99
	again, _, _ := st.Load(0)
	if again.AppState[0] == 99 {
		t.Fatal("storage returned shared memory")
	}
	ranks, err := st.Ranks()
	if err != nil || len(ranks) != 2 || ranks[0] != 0 || ranks[1] != 2 {
		t.Fatalf("Ranks = %v, %v", ranks, err)
	}
	if st.Saves() != 2 {
		t.Fatalf("Saves = %d", st.Saves())
	}
	// Replacing a rank's checkpoint keeps only the latest.
	newer := sampleCheckpoint(0)
	newer.Iteration = 20
	if err := st.Save(newer); err != nil {
		t.Fatal(err)
	}
	got, _, _ := st.Load(0)
	if got.Iteration != 20 {
		t.Fatalf("latest checkpoint not returned: %d", got.Iteration)
	}
	if err := st.Save(&Checkpoint{Rank: -1}); err == nil {
		t.Fatal("invalid checkpoint accepted by Save")
	}
}

func TestPropertyEncodeDecodeAppState(t *testing.T) {
	f := func(state []byte, iter uint8) bool {
		cp := sampleCheckpoint(1)
		cp.AppState = state
		cp.Iteration = int(iter)
		raw, err := Encode(cp)
		if err != nil {
			return false
		}
		back, err := Decode(raw)
		if err != nil {
			return false
		}
		if len(back.AppState) != len(state) {
			return false
		}
		for i := range state {
			if back.AppState[i] != state[i] {
				return false
			}
		}
		return back.Iteration == int(iter)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
