package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// encodeAt encodes a checkpoint stamped with the given wave.
func encodeAt(t *testing.T, cp *Checkpoint, wave int) []byte {
	t.Helper()
	cp.Wave = wave
	raw, err := Encode(cp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return raw
}

// mustEncodeAt is encodeAt for fuzz-seed setup, where no *testing.T exists.
func mustEncodeAt(cp *Checkpoint, wave int) []byte {
	cp.Wave = wave
	raw, err := Encode(cp)
	if err != nil {
		panic(err)
	}
	return raw
}

// TestPropertyDeltaMatchesCodecV2 is the codec-v3 reference property: for
// randomized checkpoint pairs, reconstructing the delta frame must yield the
// codec-v2 image bit-identically, and decoding it must produce exactly the
// structure codec v2 decodes. The pairs are unrelated states — the worst case
// for matching — so this pins correctness independent of delta gain.
func TestPropertyDeltaMatchesCodecV2(t *testing.T) {
	rng := rand.New(rand.NewSource(20130731))
	for i := 0; i < 200; i++ {
		base := encodeAt(t, randCheckpoint(rng), 7)
		cp := randCheckpoint(rng)
		full := encodeAt(t, cp, 8)

		frame, err := EncodeDeltaFrame(full, base, 7)
		if err != nil {
			t.Fatalf("case %d: delta encode: %v", i, err)
		}
		if k, err := Frame(frame); err != nil || k != KindDelta {
			t.Fatalf("case %d: frame kind %v err %v", i, k, err)
		}
		if bw, err := DeltaBaseWave(frame); err != nil || bw != 7 {
			t.Fatalf("case %d: base wave %d err %v", i, bw, err)
		}
		meta, err := DecodeMeta(frame)
		if err != nil || meta.Rank != cp.Rank || meta.Wave != 8 {
			t.Fatalf("case %d: frame meta %+v err %v", i, meta, err)
		}

		rec, err := ReconstructFull(frame, base)
		if err != nil {
			t.Fatalf("case %d: reconstruct: %v", i, err)
		}
		if !bytes.Equal(rec, full) {
			t.Fatalf("case %d: reconstruction is not bit-identical to the v2 image", i)
		}
		want, err := Decode(full)
		if err != nil {
			t.Fatalf("case %d: v2 decode: %v", i, err)
		}
		got, err := Decode(rec)
		if err != nil {
			t.Fatalf("case %d: reconstructed decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: decoded checkpoints differ", i)
		}
	}
}

func TestCompressedFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		cp := randCheckpoint(rng)
		full := encodeAt(t, cp, 3)
		frame, err := EncodeCompressedFrame(full)
		if err != nil {
			t.Fatalf("case %d: compress: %v", i, err)
		}
		if k, _ := Frame(frame); k != KindCompressed {
			t.Fatalf("case %d: wrong kind", i)
		}
		meta, err := DecodeMeta(frame)
		if err != nil || meta.Wave != 3 || meta.Rank != cp.Rank {
			t.Fatalf("case %d: meta %+v err %v", i, meta, err)
		}
		rec, err := ReconstructFull(frame, nil)
		if err != nil {
			t.Fatalf("case %d: reconstruct: %v", i, err)
		}
		if !bytes.Equal(rec, full) {
			t.Fatalf("case %d: round trip not bit-identical", i)
		}
	}
}

// driftCheckpoint builds a stencil-like state: cells float64 values that
// drift slightly from step to step, the regime the delta codec targets.
func driftCheckpoint(cells int, step int) *Checkpoint {
	state := make([]byte, cells*8)
	for i := 0; i < cells; i++ {
		v := math.Sin(float64(i)*0.01)*100 + float64(step)*0.001*float64(i%7)
		binary.LittleEndian.PutUint64(state[i*8:], math.Float64bits(v))
	}
	return &Checkpoint{
		Rank:      1,
		Iteration: step,
		AppState:  state,
		Channels:  &mpi.ChannelSnapshot{Clock: float64(step)},
		Protocol:  []byte{1, 2, 3},
	}
}

// TestDeltaGainOnDriftingState pins the perf claim behind the bench gate:
// consecutive waves of a drifting stencil state must delta-encode well below
// the full-image size even though almost every byte changes.
func TestDeltaGainOnDriftingState(t *testing.T) {
	base := encodeAt(t, driftCheckpoint(2048, 4), 4)
	full := encodeAt(t, driftCheckpoint(2048, 5), 5)
	frame, err := EncodeDeltaFrame(full, base, 4)
	if err != nil {
		t.Fatalf("delta encode: %v", err)
	}
	if len(frame) >= len(full)*3/4 {
		t.Fatalf("delta frame %dB gains too little on the full image %dB", len(frame), len(full))
	}
	rec, err := ReconstructFull(frame, base)
	if err != nil {
		t.Fatalf("reconstruct: %v", err)
	}
	if !bytes.Equal(rec, full) {
		t.Fatalf("reconstruction not bit-identical")
	}
}

func TestDeltaWrongBaseDetected(t *testing.T) {
	base := encodeAt(t, driftCheckpoint(256, 0), 0)
	other := encodeAt(t, driftCheckpoint(257, 0), 0)
	full := encodeAt(t, driftCheckpoint(256, 1), 1)
	frame, err := EncodeDeltaFrame(full, base, 0)
	if err != nil {
		t.Fatalf("delta encode: %v", err)
	}
	if _, err := ReconstructFull(frame, other); err == nil {
		t.Fatalf("reconstruct accepted a wrong base")
	}
	if _, err := ReconstructFull(frame, nil); err == nil {
		t.Fatalf("reconstruct accepted a nil base")
	}
}

// TestDeltaChainReconstruct walks a 3-link chain, the shape recovery replays
// after the hot ring is exceeded.
func TestDeltaChainReconstruct(t *testing.T) {
	fulls := make([][]byte, 4)
	for w := range fulls {
		fulls[w] = encodeAt(t, driftCheckpoint(512, w), w)
	}
	frames := [][]byte{fulls[0]}
	for w := 1; w < 4; w++ {
		frame, err := EncodeDeltaFrame(fulls[w], fulls[w-1], w-1)
		if err != nil {
			t.Fatalf("wave %d: %v", w, err)
		}
		frames = append(frames, frame)
	}
	cur := []byte(nil)
	for w, frame := range frames {
		var err error
		cur, err = ReconstructFull(frame, cur)
		if err != nil {
			t.Fatalf("wave %d: reconstruct: %v", w, err)
		}
		if !bytes.Equal(cur, fulls[w]) {
			t.Fatalf("wave %d: chain diverged", w)
		}
	}
}

func TestReconstructRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := encodeAt(t, randCheckpoint(rng), 1)
	full := encodeAt(t, randCheckpoint(rng), 2)
	for name, frame := range map[string][]byte{
		"delta": mustDelta(t, full, base, 1),
		"zfull": mustZFull(t, full),
	} {
		// Truncations at every length must error, never panic.
		for n := 0; n < len(frame); n += 7 {
			if _, err := ReconstructFull(frame[:n], base); err == nil && n < len(frame) {
				t.Fatalf("%s: truncation to %dB accepted", name, n)
			}
		}
		// Flipping any single byte past the magic must error (the checksum
		// pins the payload; header fields are bounds-checked).
		for i := codecHeaderLen; i < len(frame); i += 11 {
			bad := append([]byte(nil), frame...)
			bad[i] ^= 0xff
			if rec, err := ReconstructFull(bad, base); err == nil && bytes.Equal(rec, full) {
				continue // flip landed in redundant varint bits; same image is fine
			} else if err == nil {
				t.Fatalf("%s: corrupt byte %d yielded a wrong image without error", name, i)
			}
		}
	}
}

// handDelta assembles a delta frame field by field, the way a corrupt or
// hostile writer could: valid magic, meta and base pins, arbitrary ops.
func handDelta(base []byte, fullLen int, ops []deltaOp, blob []byte) []byte {
	meta, err := metaSpan(base)
	if err != nil {
		panic(err)
	}
	e := encoder{}
	e.out = append(e.out, deltaMagic[:]...)
	e.out = append(e.out, meta...)
	e.varint(0)
	e.uint64(uint64(len(base)))
	e.out = binary.LittleEndian.AppendUint64(e.out, fnv1a(base))
	e.uint64(uint64(fullLen))
	e.out = binary.LittleEndian.AppendUint64(e.out, 0)
	e.uint64(uint64(len(ops)))
	for _, op := range ops {
		e.uint64(uint64(op.length)<<2 | uint64(op.kind))
		if op.kind != opLit {
			e.uint64(uint64(op.baseOff))
		}
	}
	e.out = append(e.out, 0) // stored blob
	e.bytes(blob)
	return e.out
}

// overflowingOpFrame is the frame that used to panic ReconstructFull: one XOR
// op whose base offset plus length wraps past the int range, so the sum
// compared below len(base).
func overflowingOpFrame(base []byte) []byte {
	return handDelta(base, 10, []deltaOp{{kind: opXOR, length: 10, baseOff: 1<<63 - 6}}, make([]byte, 10))
}

func TestReconstructRejectsWrappingOpRange(t *testing.T) {
	base := encodeAt(t, driftCheckpoint(128, 0), 0)
	if _, err := ReconstructFull(overflowingOpFrame(base), base); err == nil || !strings.Contains(err.Error(), "op range outside base") {
		t.Fatalf("wrapping op range: err = %v, want an op-range error", err)
	}
	// In range, the same frame shape reconstructs up to the checksum.
	ok := handDelta(base, 10, []deltaOp{{kind: opXOR, length: 10, baseOff: len(base) - 10}}, make([]byte, 10))
	if _, err := ReconstructFull(ok, base); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("in-range op: err = %v, want a checksum mismatch", err)
	}
}

// TestReconstructBoundsCopyOps: COPY ops count against the claimed image
// length as they are applied, so a frame of a few hundred bytes cannot make
// the reader assemble gigabytes before the final length check.
func TestReconstructBoundsCopyOps(t *testing.T) {
	base := encodeAt(t, driftCheckpoint(128, 0), 0)
	ops := make([]deltaOp, 64)
	for i := range ops {
		ops[i] = deltaOp{kind: opCopy, length: len(base)}
	}
	_, err := ReconstructFull(handDelta(base, len(base), ops, nil), base)
	if err == nil || !strings.Contains(err.Error(), "ops overflow image length") {
		t.Fatalf("64 whole-base copies into a one-base image: err = %v, want the overflow error", err)
	}
}

func mustDelta(t *testing.T, full, base []byte, baseWave int) []byte {
	t.Helper()
	frame, err := EncodeDeltaFrame(full, base, baseWave)
	if err != nil {
		t.Fatalf("delta encode: %v", err)
	}
	return frame
}

func mustZFull(t *testing.T, full []byte) []byte {
	t.Helper()
	frame, err := EncodeCompressedFrame(full)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	return frame
}

// FuzzDeltaDecode drives ReconstructFull (and the frame probes) with
// arbitrary bytes: truncated or corrupt chunk references must error, never
// panic, and never return a wrong image that passes the checksum.
func FuzzDeltaDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(77))
	base := mustEncodeAt(driftCheckpoint(128, 0), 0)
	full := mustEncodeAt(driftCheckpoint(128, 1), 1)
	delta, err := EncodeDeltaFrame(full, base, 0)
	if err != nil {
		f.Fatal(err)
	}
	zfull, err := EncodeCompressedFrame(full)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(delta, base)
	f.Add(zfull, []byte(nil))
	f.Add(full, base)
	f.Add(overflowingOpFrame(base), base)
	for i := 0; i < 16; i++ {
		mut := append([]byte(nil), delta...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		f.Add(mut[:rng.Intn(len(mut)+1)], base)
	}
	f.Fuzz(func(t *testing.T, raw, b []byte) {
		rec, err := ReconstructFull(raw, b)
		if err == nil {
			if k, kerr := Frame(raw); kerr != nil {
				t.Fatalf("reconstruct succeeded on unframeable input")
			} else if k == KindFull && !bytes.Equal(rec, raw) {
				t.Fatalf("full passthrough changed bytes")
			}
		}
		DecodeMeta(raw)
		DeltaBaseWave(raw)
	})
}
