package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/buf"
	"repro/internal/logstore"
	"repro/internal/mpi"
)

// randCheckpoint draws a randomized checkpoint: payload sizes, channel maps,
// queued messages, protocol blobs and scalars all vary, including the empty
// and nil edge cases the codec must round-trip exactly like gob.
func randCheckpoint(rng *rand.Rand) *Checkpoint {
	randBytes := func(max int) []byte {
		n := rng.Intn(max + 1)
		if n == 0 && rng.Intn(2) == 0 {
			return nil // exercise nil vs empty
		}
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	randEnv := func() mpi.Envelope {
		return mpi.Envelope{
			Source: rng.Intn(64),
			Dest:   rng.Intn(64),
			CommID: rng.Intn(4),
			Tag:    rng.Intn(1<<25) - 1, // includes -1 wildcards and reserved tags
			Seq:    uint64(rng.Int63()),
			Match:  mpi.MatchID{Pattern: rng.Uint32(), Iteration: rng.Uint32()},
			Bytes:  rng.Intn(1 << 16),
		}
	}
	cp := &Checkpoint{
		Rank:      rng.Intn(128),
		Cluster:   rng.Intn(8),
		Iteration: rng.Intn(1000),
		Epoch:     rng.Intn(100),
		Time:      rng.NormFloat64() * 1e3,
		AppState:  randBytes(1 << 12),
		Protocol:  randBytes(256),
	}
	if rng.Intn(8) > 0 { // occasionally no channel snapshot at all
		c := &mpi.ChannelSnapshot{Clock: rng.Float64() * 100}
		if n := rng.Intn(5); n > 0 {
			c.Out = make(map[mpi.ChanKey]uint64, n)
			for i := 0; i < n; i++ {
				c.Out[mpi.ChanKey{Peer: rng.Intn(32), Comm: rng.Intn(3)}] = uint64(rng.Int63())
			}
		}
		if n := rng.Intn(5); n > 0 {
			c.In = make(map[mpi.ChanKey]mpi.InChannelState, n)
			for i := 0; i < n; i++ {
				c.In[mpi.ChanKey{Peer: rng.Intn(32), Comm: rng.Intn(3)}] = mpi.InChannelState{
					MaxSeqSeen: uint64(rng.Int63()),
					Delivered:  uint64(rng.Int63()),
				}
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			c.Queued = append(c.Queued, mpi.QueuedMessage{
				Env:        randEnv(),
				Payload:    randBytes(512),
				ArriveTime: rng.Float64() * 10,
				Replayed:   rng.Intn(2) == 0,
			})
		}
		if n := rng.Intn(3); n > 0 {
			c.CollSeq = make(map[int]uint64, n)
			for i := 0; i < n; i++ {
				c.CollSeq[rng.Intn(4)] = uint64(rng.Int63())
			}
		}
		cp.Channels = c
	}
	for i := rng.Intn(6); i > 0; i-- {
		cp.Logs = append(cp.Logs, logstore.Record{
			Env:      randEnv(),
			Payload:  randBytes(1 << 10),
			SendTime: rng.Float64() * 10,
		})
	}
	return cp
}

// gobRoundTrip encodes and decodes cp with encoding/gob, the reference the
// binary codec is held to.
func gobRoundTrip(cp *Checkpoint) (*Checkpoint, error) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(cp); err != nil {
		return nil, fmt.Errorf("gob encode: %w", err)
	}
	var back Checkpoint
	if err := gob.NewDecoder(&b).Decode(&back); err != nil {
		return nil, fmt.Errorf("gob decode: %w", err)
	}
	return &back, nil
}

// TestPropertyCodecMatchesGob is the codec's reference property: on
// randomized checkpoints, a binary round trip must produce exactly the
// structure a gob round trip produces (gob is the old wire format; both
// normalize empty collections to nil).
func TestPropertyCodecMatchesGob(t *testing.T) {
	rng := rand.New(rand.NewSource(20130731))
	for i := 0; i < 300; i++ {
		cp := randCheckpoint(rng)
		raw, err := Encode(cp)
		if err != nil {
			t.Fatalf("case %d: Encode: %v", i, err)
		}
		back, err := Decode(raw)
		if err != nil {
			t.Fatalf("case %d: Decode: %v", i, err)
		}
		gback, err := gobRoundTrip(cp)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, gback) {
			t.Fatalf("case %d: binary and gob round trips diverge:\nbinary: %+v\ngob:    %+v", i, back, gback)
		}
	}
}

// TestCodecDeterministic pins that encoding is a pure function of the
// checkpoint content (map iteration order must not leak into the image).
func TestCodecDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		cp := randCheckpoint(rng)
		a, err := Encode(cp)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			b, err := Encode(cp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("case %d: two encodings of one checkpoint differ", i)
			}
		}
	}
}

func TestCodecSpecialFloats(t *testing.T) {
	cp := sampleCheckpoint(1)
	cp.Time = math.Inf(1)
	cp.Channels.Clock = math.NaN()
	raw, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.Time, 1) || !math.IsNaN(back.Channels.Clock) {
		t.Fatalf("special floats lost: time=%v clock=%v", back.Time, back.Channels.Clock)
	}
}

// TestDecodeRejectsCorruption truncates and flips bytes of a valid image:
// Decode must fail cleanly (or, for a byte flip, return without panicking) —
// never crash, never over-allocate on a corrupted length.
func TestDecodeRejectsCorruption(t *testing.T) {
	raw, err := Encode(sampleCheckpoint(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil input must not decode")
	}
	if _, err := Decode([]byte("not a checkpoint")); err == nil {
		t.Fatal("garbage must not decode")
	}
	for cut := 0; cut < len(raw); cut += 3 {
		if _, err := Decode(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d must not decode", cut, len(raw))
		}
	}
	if _, err := Decode(append(append([]byte(nil), raw...), 0)); err == nil {
		t.Fatal("trailing bytes must not decode")
	}
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		_, _ = Decode(mut) // must not panic; errors are fine
	}
}

// TestEncodeBufferPooled pins the pooled-encode contract: the image buffer is
// exactly the encoded length, comes from the pool in steady state, and
// recycles on release.
func TestEncodeBufferPooled(t *testing.T) {
	cp := sampleCheckpoint(4)
	exact, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		image, err := EncodeBuffer(cp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(image.Bytes(), exact) {
			t.Fatal("EncodeBuffer image differs from Encode output")
		}
		if image.Refs() != 1 {
			t.Fatalf("fresh image has %d refs, want 1", image.Refs())
		}
		image.Release()
	}
	if raceEnabled {
		return // sync.Pool drops items on purpose under the race detector
	}
	before := buf.PoolStats()
	for i := 0; i < 50; i++ {
		image, err := EncodeBuffer(cp)
		if err != nil {
			t.Fatal(err)
		}
		image.Release()
	}
	after := buf.PoolStats()
	if misses := after.Misses - before.Misses; misses > 5 {
		t.Errorf("steady-state encode missed the pool %d/50 times", misses)
	}
}

// FuzzCheckpointDecode feeds arbitrary bytes to Decode: it must never panic
// and every successfully decoded checkpoint must re-encode and decode to the
// same structure.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SCK\x01"))
	f.Add([]byte("garbage input"))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		raw, err := Encode(randCheckpoint(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		cp, err := Decode(raw)
		if err != nil {
			return
		}
		again, err := Encode(cp)
		if err != nil {
			t.Fatalf("re-encode of decoded checkpoint failed: %v", err)
		}
		back, err := Decode(again)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(cp, back) {
			t.Fatalf("decode/encode/decode not stable:\n%+v\n%+v", cp, back)
		}
	})
}
