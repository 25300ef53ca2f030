package checkpoint

// The codec-v3 writers as they were before their working set was pooled: a
// fresh flate writer, chunk index, op list and blob per frame, and the frame
// assembled in a plain heap slice. Kept in a test file only, as the reference
// the pooled writers must match byte for byte.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// refChunks cuts data at gear-hash boundaries. Boundaries depend only on local
// content, so an insertion early in the image shifts later cut points by the
// same amount and downstream chunks still match the base.
func refChunks(data []byte) []chunkSpan {
	var out []chunkSpan
	start := 0
	var h uint64
	for i, b := range data {
		h = h<<1 + gearTable[b]
		n := i - start + 1
		if (n >= chunkMin && h&chunkMask == 0) || n >= chunkMax {
			out = append(out, chunkSpan{off: start, len: n})
			start = i + 1
			h = 0
		}
	}
	if start < len(data) {
		out = append(out, chunkSpan{off: start, len: len(data) - start})
	}
	return out
}

// refBuildOps computes the COPY/XOR/LITERAL op list and residual blob that turn
// base into target.
func refBuildOps(target, base []byte) ([]deltaOp, []byte) {
	index := make(map[uint64]chunkSpan)
	for _, c := range refChunks(base) {
		h := fnv1a(base[c.off : c.off+c.len])
		if _, ok := index[h]; !ok {
			index[h] = c
		}
	}

	var ops []deltaOp
	var blob []byte
	pendOff, pendLen := 0, 0 // unmatched target region being accumulated

	flush := func() {
		for pendLen > 0 {
			if pendOff < len(base) {
				// Aligned-XOR the part that overlaps the base: stencil state
				// drifts in place, so target[i]^base[i] is zero-heavy.
				n := pendLen
				if pendOff+n > len(base) {
					n = len(base) - pendOff
				}
				for i := 0; i < n; i++ {
					blob = append(blob, target[pendOff+i]^base[pendOff+i])
				}
				ops = append(ops, deltaOp{kind: opXOR, length: n, baseOff: pendOff})
				pendOff += n
				pendLen -= n
				continue
			}
			blob = append(blob, target[pendOff:pendOff+pendLen]...)
			ops = append(ops, deltaOp{kind: opLit, length: pendLen})
			pendOff += pendLen
			pendLen = 0
		}
	}

	for _, c := range refChunks(target) {
		piece := target[c.off : c.off+c.len]
		m, ok := index[fnv1a(piece)]
		if ok && m.len == c.len && bytes.Equal(piece, base[m.off:m.off+m.len]) {
			flush()
			if n := len(ops); n > 0 && ops[n-1].kind == opCopy &&
				ops[n-1].baseOff+ops[n-1].length == m.off {
				ops[n-1].length += c.len
			} else {
				ops = append(ops, deltaOp{kind: opCopy, length: c.len, baseOff: m.off})
			}
			continue
		}
		if pendLen == 0 {
			pendOff = c.off
		}
		pendLen += c.len
	}
	flush()
	return ops, blob
}

// refDeflate compresses p; mode 1 means flate, mode 0 means p was stored raw
// because compression did not shrink it.
func refDeflate(p []byte) (mode byte, out []byte) {
	var b bytes.Buffer
	w, err := flate.NewWriter(&b, flate.DefaultCompression)
	if err == nil {
		if _, err = w.Write(p); err == nil {
			err = w.Close()
		}
	}
	if err != nil || b.Len() >= len(p) {
		return 0, p
	}
	return 1, b.Bytes()
}

// refEncodeDeltaFrame encodes full (a codec-v2 image) as a delta frame against
// base (the rank's previous durable codec-v2 image, identified by baseWave).
// The caller is expected to apply its DeltaPolicy to the returned frame's
// size; no gain threshold is applied here.
func refEncodeDeltaFrame(full, base []byte, baseWave int) ([]byte, error) {
	if _, err := DecodeMeta(full); err != nil {
		return nil, err
	}
	if len(full) < codecHeaderLen || !bytes.Equal(full[:4], codecMagic[:]) {
		return nil, fmt.Errorf("checkpoint: delta encode: target is not a full v2 image")
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("checkpoint: delta encode: empty base")
	}
	meta, err := metaSpan(full)
	if err != nil {
		return nil, err
	}

	ops, blob := refBuildOps(full, base)
	mode, packed := refDeflate(blob)

	e := encoder{out: make([]byte, 0, len(meta)+len(packed)+len(ops)*2*maxVarintLen+64)}
	e.out = append(e.out, deltaMagic[:]...)
	e.out = append(e.out, meta...)
	e.varint(int64(baseWave))
	e.uint64(uint64(len(base)))
	e.out = binary.LittleEndian.AppendUint64(e.out, fnv1a(base))
	e.uint64(uint64(len(full)))
	e.out = binary.LittleEndian.AppendUint64(e.out, fnv1a(full))
	e.uint64(uint64(len(ops)))
	for _, op := range ops {
		e.uint64(uint64(op.length)<<2 | uint64(op.kind))
		if op.kind != opLit {
			e.uint64(uint64(op.baseOff))
		}
	}
	e.out = append(e.out, mode)
	e.bytes(packed)
	return e.out, nil
}

// refEncodeCompressedFrame encodes full (a codec-v2 image) as a self-describing
// compressed frame. The frame may be larger than the input on incompressible
// images; callers compare sizes and keep the raw image in that case.
func refEncodeCompressedFrame(full []byte) ([]byte, error) {
	if _, err := DecodeMeta(full); err != nil {
		return nil, err
	}
	if !bytes.Equal(full[:4], codecMagic[:]) {
		return nil, fmt.Errorf("checkpoint: compress: input is not a full v2 image")
	}
	meta, err := metaSpan(full)
	if err != nil {
		return nil, err
	}
	mode, packed := refDeflate(full)
	e := encoder{out: make([]byte, 0, len(meta)+len(packed)+32)}
	e.out = append(e.out, zfullMagic[:]...)
	e.out = append(e.out, meta...)
	e.uint64(uint64(len(full)))
	e.out = binary.LittleEndian.AppendUint64(e.out, fnv1a(full))
	e.out = append(e.out, mode)
	e.bytes(packed)
	return e.out, nil
}

// framePair is one (full, base) input of the byte-identity property with the
// frames the reference writers produce for it.
type framePair struct {
	full, base   []byte
	delta, zfull []byte
}

// mixedFramePairs builds n randomized pairs that between them reach every
// branch of the writers: unrelated states (nothing matches), drifting states
// of many sizes (XOR ops, flate), identical images (one COPY op), a shifted
// base (content-defined COPY runs), a target longer than its base (LITERAL
// tail) and random state (flate loses, the payload is stored).
func mixedFramePairs(t *testing.T, n int) []framePair {
	t.Helper()
	rng := rand.New(rand.NewSource(22))
	image := func(cp *Checkpoint, wave int) []byte { return encodeAt(t, cp, wave) }
	pairs := make([]framePair, n)
	for i := range pairs {
		cells := 1 << (2 + rng.Intn(11)) // 32 B to 32 KiB of state
		var full, base []byte
		switch i % 6 {
		case 0:
			base, full = image(randCheckpoint(rng), 7), image(randCheckpoint(rng), 8)
		case 1:
			base, full = image(driftCheckpoint(cells, i), 7), image(driftCheckpoint(cells, i+1), 8)
		case 2:
			base = image(driftCheckpoint(cells, i), 7)
			full = base
		case 3:
			cp := driftCheckpoint(cells, i)
			full = image(cp, 8)
			cp.Protocol = make([]byte, 1+rng.Intn(300))
			base = image(cp, 7)
		case 4:
			base, full = image(driftCheckpoint(cells/2+1, i), 7), image(driftCheckpoint(cells, i), 8)
		case 5:
			cp := driftCheckpoint(cells, i)
			rng.Read(cp.AppState)
			base = image(cp, 7)
			rng.Read(cp.AppState[:len(cp.AppState)/2])
			full = image(cp, 8)
		}
		delta, err := refEncodeDeltaFrame(full, base, 7)
		if err != nil {
			t.Fatalf("pair %d: reference delta encode: %v", i, err)
		}
		zfull, err := refEncodeCompressedFrame(full)
		if err != nil {
			t.Fatalf("pair %d: reference compress: %v", i, err)
		}
		pairs[i] = framePair{full: full, base: base, delta: delta, zfull: zfull}
	}
	return pairs
}

// check encodes the pair with the pooled writers and requires the reference
// frames byte for byte, then round-trips both through ReconstructFull.
func (p *framePair) check() error {
	delta, err := EncodeDeltaFrame(p.full, p.base, 7)
	if err != nil {
		return fmt.Errorf("delta encode: %w", err)
	}
	if !bytes.Equal(delta, p.delta) {
		return fmt.Errorf("delta frame (%dB) differs from the reference (%dB)", len(delta), len(p.delta))
	}
	zfull, err := EncodeCompressedFrame(p.full)
	if err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	if !bytes.Equal(zfull, p.zfull) {
		return fmt.Errorf("compressed frame (%dB) differs from the reference (%dB)", len(zfull), len(p.zfull))
	}
	if rec, err := ReconstructFull(delta, p.base); err != nil || !bytes.Equal(rec, p.full) {
		return fmt.Errorf("delta round trip: err %v", err)
	}
	if rec, err := ReconstructFull(zfull, nil); err != nil || !bytes.Equal(rec, p.full) {
		return fmt.Errorf("compressed round trip: err %v", err)
	}
	return nil
}

// TestPooledFramesMatchFreshWriterReference is the byte-identity property of
// the pooled writers: whatever a scratch encoded before — another size,
// another rank, on another goroutine — the next frame is the bytes a fresh
// flate writer and fresh tables produce.
func TestPooledFramesMatchFreshWriterReference(t *testing.T) {
	pairs := mixedFramePairs(t, 300)
	stored := 0
	for i := range pairs {
		if err := pairs[i].check(); err != nil {
			t.Fatalf("pair %d (full %dB, base %dB): %v", i, len(pairs[i].full), len(pairs[i].base), err)
		}
		if len(pairs[i].zfull) > len(pairs[i].full) {
			stored++
		}
	}
	if stored == 0 {
		t.Fatal("no pair took the stored-payload branch")
	}

	// The same pairs from 8 goroutines, each taking its own random quarter in
	// its own order, so scratches and buffers migrate between sizes and
	// goroutines (run under -race).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(len(pairs))
			for _, i := range order[:len(pairs)/4] {
				if err := pairs[i].check(); err != nil {
					t.Errorf("goroutine %d, pair %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAllocGuardDeltaEncode pins the steady-state cost of the codec-v3 frame
// writers and of ReconstructFull on a drifting ~16 KiB image: the writers
// allocate nothing (their frames come from and return to the buffer pool),
// the reader the image it returns plus the Huffman link tables compress/flate
// rebuilds for every dynamic block.
func TestAllocGuardDeltaEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	base := mustEncodeAt(driftCheckpoint(2048, 4), 4)
	full := mustEncodeAt(driftCheckpoint(2048, 5), 5)
	encode := func() {
		delta, err := EncodeDeltaFrameBuffer(full, base, 4)
		if err != nil {
			t.Fatalf("delta encode: %v", err)
		}
		zfull, err := EncodeCompressedFrameBuffer(full)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		delta.Release()
		zfull.Release()
	}
	encode() // fill the pools
	frameD, frameZ := mustDelta(t, full, base, 4), mustZFull(t, full)
	reconstruct := func() {
		if _, err := ReconstructFull(frameD, base); err != nil {
			t.Fatalf("delta reconstruct: %v", err)
		}
		if _, err := ReconstructFull(frameZ, nil); err != nil {
			t.Fatalf("compressed reconstruct: %v", err)
		}
	}
	reconstruct()

	// measure returns allocations and bytes per call (AllocsPerRun makes one
	// warm-up call besides the measured ones). The pooled flate writers must
	// be where the measured calls look for them. AllocsPerRun runs on one P,
	// and a writer the earlier warm-up left in another P's private sync.Pool
	// slot is invisible from there, so fn is warmed again on that one P first.
	// The collector is off so a GC cannot empty the pool mid-measurement.
	measure := func(fn func()) (allocs, bytesPerCall float64) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		fn()
		const calls = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(calls, fn)
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (calls + 1)
	}
	if allocs, b := measure(encode); allocs > 0 || b > 4<<10 {
		t.Errorf("two frame encodes: %.0f allocs, %.0f B per call, want 0 allocs and <= 4 KiB (one flate writer is ~650 KiB)", allocs, b)
	}
	if allocs, b := measure(reconstruct); allocs > 40 || b > float64(2*len(full)+16<<10) {
		t.Errorf("two reconstructs: %.0f allocs, %.0f B per call, want <= 40 allocs and <= two %d B images + 16 KiB", allocs, b, len(full))
	}
}
