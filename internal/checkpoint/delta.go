package checkpoint

// Codec v3: incremental delta frames. A full v2 image ("SCK\x02") is still the
// canonical representation of one rank's checkpoint; the frames below are
// alternative *storage* representations produced off the critical path by the
// background committer:
//
//   "SCD\x01"  delta frame — reconstructs the full v2 image by applying a
//              COPY/XOR/LITERAL op list against the rank's previous durable
//              full image (the delta base).
//   "SCZ\x01"  compressed-full frame — the full v2 image behind a flate layer;
//              self-describing (needs no base) and used both as the delta
//              fallback when gain is poor and as the anchor that bounds
//              recovery chains.
//
// Every frame carries the six ImageMeta fields byte-for-byte as the v2 image
// does, immediately after its 4-byte magic, so DecodeMeta works on any frame
// without materializing it (chaos durability tracking depends on that). Both
// frames pin FNV-1a checksums of the reconstructed image (and, for deltas, of
// the required base), so a wrong or corrupted base is detected at reconstruct
// time instead of yielding a silently wrong checkpoint.
//
// Matching is content-defined: a gear-hash chunker cuts base and target at
// data-dependent boundaries, matched chunks become COPY ops, and unmatched
// regions that overlap the base become XOR ops (the stencil kernels perturb
// every float a little each step, so raw chunk dedup finds almost nothing,
// while XOR against the previous wave zeroes the slowly-moving high bytes and
// flate squeezes the result). The residual XOR/LITERAL blob is flate-packed
// with a stored fallback.

import (
	"bytes"
	"compress/flate"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/buf"
)

var (
	// deltaMagic identifies a delta frame (codec v3).
	deltaMagic = [4]byte{'S', 'C', 'D', 1}
	// zfullMagic identifies a compressed full-image frame (codec v3).
	zfullMagic = [4]byte{'S', 'C', 'Z', 1}
)

// FrameKind classifies an encoded checkpoint representation.
type FrameKind int

const (
	// KindFull is a plain codec-v2 image: self-describing, decodes directly.
	KindFull FrameKind = iota
	// KindCompressed is a flate-compressed full image: self-describing.
	KindCompressed
	// KindDelta reconstructs against the previous durable full image.
	KindDelta
)

func (k FrameKind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindCompressed:
		return "zfull"
	case KindDelta:
		return "delta"
	}
	return fmt.Sprintf("FrameKind(%d)", int(k))
}

// SelfDescribing reports whether a frame of this kind can be reconstructed
// without a base image.
func (k FrameKind) SelfDescribing() bool { return k != KindDelta }

// Frame returns the kind of an encoded representation, or an error if the
// magic matches no known frame.
func Frame(raw []byte) (FrameKind, error) {
	if len(raw) >= codecHeaderLen {
		switch {
		case bytes.Equal(raw[:4], codecMagic[:]):
			return KindFull, nil
		case bytes.Equal(raw[:4], zfullMagic[:]):
			return KindCompressed, nil
		case bytes.Equal(raw[:4], deltaMagic[:]):
			return KindDelta, nil
		}
	}
	return 0, fmt.Errorf("checkpoint: frame: bad magic or version")
}

// DeltaPolicy controls when the committer emits delta frames instead of full
// images.
type DeltaPolicy struct {
	// MaxChain bounds the recovery chain: after MaxChain-1 consecutive delta
	// frames the next wave is forced to a self-describing full frame.
	MaxChain int
	// MinGain is the admission threshold: a delta frame is kept only if its
	// size is at most MinGain × the full image's size; otherwise the wave
	// falls back to a full frame.
	MinGain float64
}

// DefaultDeltaPolicy is the committer default: chains of at most 8 waves and
// a required 10% gain over the full image.
func DefaultDeltaPolicy() DeltaPolicy { return DeltaPolicy{MaxChain: 8, MinGain: 0.9} }

// Normalized returns the policy with zero fields replaced by defaults.
func (p DeltaPolicy) Normalized() DeltaPolicy { return p.normalized() }

func (p DeltaPolicy) normalized() DeltaPolicy {
	if p.MaxChain <= 0 {
		p.MaxChain = 8
	}
	if p.MinGain <= 0 || p.MinGain > 1 {
		p.MinGain = 0.9
	}
	return p
}

// fnv1a is FNV-1a 64: the frame checksum and the chunk-index hash.
func fnv1a(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// gearTable seeds the content-defined chunker; filled from splitmix64 so the
// cut points are deterministic across runs and builds.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	s := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		s += 0x9E3779B97F4A7C15
		z := s
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		t[i] = z
	}
	return t
}()

const (
	chunkMin  = 24
	chunkMax  = 512
	chunkMask = 1<<6 - 1 // expected chunk ≈ chunkMin + 64 bytes
)

// chunkSpan is one content-defined chunk of an image.
type chunkSpan struct {
	off, len int
}

// appendChunks cuts data at gear-hash boundaries and appends the spans to
// out. Boundaries depend only on local content, so an insertion early in the
// image shifts later cut points by the same amount and downstream chunks
// still match the base.
func appendChunks(out []chunkSpan, data []byte) []chunkSpan {
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

// Delta op kinds, packed into the low 2 bits of the op head varint (the high
// bits carry the op length).
const (
	opCopy = 0 // copy length bytes from base at baseOff
	opXOR  = 1 // blob bytes XOR base at baseOff
	opLit  = 2 // blob bytes verbatim
)

type deltaOp struct {
	kind    int
	length  int
	baseOff int
}

// encodeScratch is the working set of one frame encode: the flate writer and
// its output, the chunk list and chunk index, the op list, the residual blob
// and the frame head. All of it is dead once the frame has been copied into
// its buffer, so it is pooled and reused across frames, ranks and goroutines;
// a frame encode allocates only the buffer it returns.
type encodeScratch struct {
	zw     *flate.Writer
	packed bytes.Buffer
	spans  []chunkSpan
	index  map[uint64]chunkSpan
	ops    []deltaOp
	blob   []byte
	head   []byte
}

var encodeScratchPool = sync.Pool{New: func() any {
	return &encodeScratch{index: make(map[uint64]chunkSpan)}
}}

// buildOps computes into s.ops and s.blob the COPY/XOR/LITERAL op list and
// residual blob that turn base into target.
func (s *encodeScratch) buildOps(target, base []byte) {
	clear(s.index)
	s.spans = appendChunks(s.spans[:0], base)
	for _, c := range s.spans {
		h := fnv1a(base[c.off : c.off+c.len])
		if _, ok := s.index[h]; !ok {
			s.index[h] = c
		}
	}

	s.ops, s.blob = s.ops[:0], s.blob[:0]
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
				at := len(s.blob)
				s.blob = append(s.blob, target[pendOff:pendOff+n]...)
				subtle.XORBytes(s.blob[at:], s.blob[at:], base[pendOff:pendOff+n])
				s.ops = append(s.ops, deltaOp{kind: opXOR, length: n, baseOff: pendOff})
				pendOff += n
				pendLen -= n
				continue
			}
			s.blob = append(s.blob, target[pendOff:pendOff+pendLen]...)
			s.ops = append(s.ops, deltaOp{kind: opLit, length: pendLen})
			pendOff += pendLen
			pendLen = 0
		}
	}

	s.spans = appendChunks(s.spans[:0], target)
	for _, c := range s.spans {
		piece := target[c.off : c.off+c.len]
		m, ok := s.index[fnv1a(piece)]
		if ok && m.len == c.len && bytes.Equal(piece, base[m.off:m.off+m.len]) {
			flush()
			if n := len(s.ops); n > 0 && s.ops[n-1].kind == opCopy &&
				s.ops[n-1].baseOff+s.ops[n-1].length == m.off {
				s.ops[n-1].length += c.len
			} else {
				s.ops = append(s.ops, deltaOp{kind: opCopy, length: c.len, baseOff: m.off})
			}
			continue
		}
		if pendLen == 0 {
			pendOff = c.off
		}
		pendLen += c.len
	}
	flush()
}

// deflate compresses p; mode 1 means flate, mode 0 means p was stored raw
// because compression did not shrink it. The result aliases s.packed or p. A
// Reset writer is equivalent to a new one, so the stream is the same bytes
// whatever the scratch compressed before.
func (s *encodeScratch) deflate(p []byte) (mode byte, out []byte) {
	s.packed.Reset()
	var err error
	if s.zw == nil {
		s.zw, err = flate.NewWriter(&s.packed, flate.DefaultCompression)
	} else {
		s.zw.Reset(&s.packed)
	}
	if err == nil {
		if _, err = s.zw.Write(p); err == nil {
			err = s.zw.Close()
		}
	}
	if err != nil || s.packed.Len() >= len(p) {
		return 0, p
	}
	return 1, s.packed.Bytes()
}

// frame returns s.head followed by the length-prefixed payload in a pooled
// buffer owned by the caller.
func (s *encodeScratch) frame(payload []byte) *buf.Buffer {
	s.head = binary.AppendUvarint(s.head, uint64(len(payload)))
	b := buf.Get(len(s.head) + len(payload))
	n := copy(b.Bytes(), s.head)
	copy(b.Bytes()[n:], payload)
	return b
}

// decodeScratch is the working set of one frame reconstruction — the flate
// reader, the op list and the inflated residual blob — pooled like
// encodeScratch: a reconstruction allocates only the image it returns.
type decodeScratch struct {
	zr   io.ReadCloser // a flate reader; it implements flate.Resetter
	src  bytes.Reader
	ops  []deltaOp
	blob []byte
}

var decodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// inflate fills out with exactly len(out) bytes of the flate stream p and
// rejects both truncated and oversized payloads.
func (s *decodeScratch) inflate(p, out []byte) error {
	s.src.Reset(p)
	if s.zr == nil {
		s.zr = flate.NewReader(&s.src)
	} else if err := s.zr.(flate.Resetter).Reset(&s.src, nil); err != nil {
		return fmt.Errorf("checkpoint: delta: reset flate reader: %w", err)
	}
	if _, err := io.ReadFull(s.zr, out); err != nil {
		return fmt.Errorf("checkpoint: delta: truncated compressed payload: %w", err)
	}
	var extra [1]byte
	if m, _ := s.zr.Read(extra[:]); m != 0 {
		return fmt.Errorf("checkpoint: delta: oversized compressed payload")
	}
	return nil
}

// metaSpan returns the encoded ImageMeta bytes of any frame: the fields sit
// immediately after the 4-byte magic, in v2 field order, for every frame kind.
func metaSpan(raw []byte) ([]byte, error) {
	if len(raw) < codecHeaderLen {
		return nil, fmt.Errorf("checkpoint: frame: truncated header")
	}
	rest := raw[codecHeaderLen:]
	for i := 0; i < 5; i++ {
		_, n := binary.Varint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("checkpoint: frame: truncated meta")
		}
		rest = rest[n:]
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("checkpoint: frame: truncated meta")
	}
	rest = rest[8:]
	return raw[codecHeaderLen : len(raw)-len(rest)], nil
}

// EncodeDeltaFrameBuffer encodes full (a codec-v2 image) as a delta frame
// against base (the rank's previous durable codec-v2 image, identified by
// baseWave) into a pooled buffer the caller owns. The caller is expected to
// apply its DeltaPolicy to the returned frame's size; no gain threshold is
// applied here.
func EncodeDeltaFrameBuffer(full, base []byte, baseWave int) (*buf.Buffer, error) {
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

	s := encodeScratchPool.Get().(*encodeScratch)
	defer encodeScratchPool.Put(s)
	s.buildOps(full, base)
	mode, packed := s.deflate(s.blob)

	e := encoder{out: s.head[:0]}
	e.out = append(e.out, deltaMagic[:]...)
	e.out = append(e.out, meta...)
	e.varint(int64(baseWave))
	e.uint64(uint64(len(base)))
	e.out = binary.LittleEndian.AppendUint64(e.out, fnv1a(base))
	e.uint64(uint64(len(full)))
	e.out = binary.LittleEndian.AppendUint64(e.out, fnv1a(full))
	e.uint64(uint64(len(s.ops)))
	for _, op := range s.ops {
		e.uint64(uint64(op.length)<<2 | uint64(op.kind))
		if op.kind != opLit {
			e.uint64(uint64(op.baseOff))
		}
	}
	s.head = append(e.out, mode)
	return s.frame(packed), nil
}

// EncodeCompressedFrameBuffer encodes full (a codec-v2 image) as a
// self-describing compressed frame into a pooled buffer the caller owns. The
// frame may be larger than the input on incompressible images; callers
// compare sizes and keep the raw image in that case.
func EncodeCompressedFrameBuffer(full []byte) (*buf.Buffer, error) {
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

	s := encodeScratchPool.Get().(*encodeScratch)
	defer encodeScratchPool.Put(s)
	mode, packed := s.deflate(full)

	e := encoder{out: s.head[:0]}
	e.out = append(e.out, zfullMagic[:]...)
	e.out = append(e.out, meta...)
	e.uint64(uint64(len(full)))
	e.out = binary.LittleEndian.AppendUint64(e.out, fnv1a(full))
	s.head = append(e.out, mode)
	return s.frame(packed), nil
}

// EncodeDeltaFrame is EncodeDeltaFrameBuffer returning an exact heap copy of
// the frame (the pooled buffer is recycled), as Encode is to EncodeBuffer.
func EncodeDeltaFrame(full, base []byte, baseWave int) ([]byte, error) {
	b, err := EncodeDeltaFrameBuffer(full, base, baseWave)
	if err != nil {
		return nil, err
	}
	return heapCopy(b), nil
}

// EncodeCompressedFrame is EncodeCompressedFrameBuffer returning an exact
// heap copy of the frame.
func EncodeCompressedFrame(full []byte) ([]byte, error) {
	b, err := EncodeCompressedFrameBuffer(full)
	if err != nil {
		return nil, err
	}
	return heapCopy(b), nil
}

// heapCopy releases b and returns its content in an exactly sized slice.
func heapCopy(b *buf.Buffer) []byte {
	out := append([]byte(nil), b.Bytes()...)
	b.Release()
	return out
}

// DeltaBaseWave returns the wave number of the base image a delta frame
// reconstructs against. It errors on any self-describing frame.
func DeltaBaseWave(raw []byte) (int, error) {
	k, err := Frame(raw)
	if err != nil {
		return 0, err
	}
	if k != KindDelta {
		return 0, fmt.Errorf("checkpoint: %s frame has no delta base", k)
	}
	meta, err := metaSpan(raw)
	if err != nil {
		return 0, err
	}
	d := decoder{in: raw[codecHeaderLen+len(meta):]}
	w := d.int("delta base wave")
	if d.err != nil {
		return 0, d.err
	}
	return w, nil
}

func (d *decoder) fixed64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.in) < 8 {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.in)
	d.in = d.in[8:]
	return v
}

// span reads a length-prefixed byte field without copying it: the result
// aliases the input.
func (d *decoder) span(what string) []byte {
	n := d.count(what)
	if d.err != nil {
		return nil
	}
	out := d.in[:n:n]
	d.in = d.in[n:]
	return out
}

// maxImageLen bounds the reconstructed-image size a frame header may claim,
// so corrupt input cannot drive an arbitrarily large allocation.
const maxImageLen = 1 << 27

// pinnedImage returns the length and FNV-1a checksum a compressed or delta
// frame pins for the full image it reconstructs to. ok is false for plain
// full images (they pin nothing) and for frames whose header does not parse.
func pinnedImage(raw []byte) (length, sum uint64, ok bool) {
	kind, err := Frame(raw)
	if err != nil || kind == KindFull {
		return 0, 0, false
	}
	meta, err := metaSpan(raw)
	if err != nil {
		return 0, 0, false
	}
	d := decoder{in: raw[codecHeaderLen+len(meta):]}
	if kind == KindDelta {
		d.varint("delta base wave")
		d.uint64("delta base length")
		d.fixed64("delta base checksum")
	}
	length = d.uint64("full length")
	sum = d.fixed64("full checksum")
	return length, sum, d.err == nil
}

// ReconstructFull turns any frame back into the full codec-v2 image, bit
// identical to what was encoded. It never modifies raw or base. A KindFull
// frame is returned as-is, and a frame whose payload was stored uncompressed
// yields a slice of raw, so the result may alias raw; a KindDelta frame
// requires base to be the exact image identified by DeltaBaseWave, enforced
// by length+checksum. Corrupt or truncated frames, and wrong bases, yield an
// error — never a panic.
func ReconstructFull(raw, base []byte) ([]byte, error) {
	kind, err := Frame(raw)
	if err != nil {
		return nil, err
	}
	if kind == KindFull {
		return raw, nil
	}
	meta, err := metaSpan(raw)
	if err != nil {
		return nil, err
	}
	d := decoder{in: raw[codecHeaderLen+len(meta):]}
	s := decodeScratchPool.Get().(*decodeScratch)
	defer decodeScratchPool.Put(s)

	if kind == KindCompressed {
		fullLen := d.uint64("zfull length")
		fullSum := d.fixed64("zfull checksum")
		mode := d.bool("zfull mode")
		packed := d.span("zfull payload")
		if d.err == nil && len(d.in) != 0 {
			d.fail("zfull trailing bytes")
		}
		if d.err != nil {
			return nil, d.err
		}
		if fullLen > maxImageLen {
			return nil, fmt.Errorf("checkpoint: zfull: absurd image length %d", fullLen)
		}
		full := packed
		if mode {
			full = make([]byte, fullLen)
			if err := s.inflate(packed, full); err != nil {
				return nil, err
			}
		}
		if uint64(len(full)) != fullLen || fnv1a(full) != fullSum {
			return nil, fmt.Errorf("checkpoint: zfull: checksum mismatch")
		}
		return full, nil
	}

	// Delta frame.
	d.varint("delta base wave")
	baseLen := d.uint64("delta base length")
	baseSum := d.fixed64("delta base checksum")
	fullLen := d.uint64("delta full length")
	fullSum := d.fixed64("delta full checksum")
	opCount := d.count("delta ops")
	ops := s.ops[:0]
	for i := 0; i < opCount && d.err == nil; i++ {
		head := d.uint64("delta op head")
		op := deltaOp{kind: int(head & 3), length: int(head >> 2)}
		if op.kind == 3 || head>>2 > maxImageLen {
			d.fail("delta op")
			break
		}
		if op.kind != opLit {
			op.baseOff = int(d.uint64("delta op base offset"))
		}
		ops = append(ops, op)
	}
	s.ops = ops
	mode := d.bool("delta blob mode")
	packed := d.span("delta blob")
	if d.err == nil && len(d.in) != 0 {
		d.fail("delta trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	if fullLen > maxImageLen {
		return nil, fmt.Errorf("checkpoint: delta: absurd image length %d", fullLen)
	}
	if uint64(len(base)) != baseLen || fnv1a(base) != baseSum {
		return nil, fmt.Errorf("checkpoint: delta: base mismatch (have %dB, frame wants %dB)", len(base), baseLen)
	}

	var blobLen int
	for _, op := range ops {
		if op.kind != opCopy {
			blobLen += op.length
		}
	}
	if blobLen > maxImageLen {
		return nil, fmt.Errorf("checkpoint: delta: absurd blob length %d", blobLen)
	}
	blob := packed
	if mode {
		if cap(s.blob) < blobLen {
			s.blob = make([]byte, blobLen)
		}
		blob = s.blob[:blobLen]
		if err := s.inflate(packed, blob); err != nil {
			return nil, err
		}
	}
	if len(blob) != blobLen {
		return nil, fmt.Errorf("checkpoint: delta: blob length mismatch")
	}

	// Pre-sized by what the frame really carries (base and blob bytes), never
	// by the claimed fullLen alone: a corrupt header cannot drive a large
	// allocation, and the in-loop overflow check bounds growth past it by
	// actual op progress.
	full := make([]byte, 0, min(fullLen, uint64(len(base)+blobLen)))
	for _, op := range ops {
		switch op.kind {
		case opCopy, opXOR:
			// baseOff > len-length, not baseOff+length > len: the sum of two
			// decoded 63-bit values can wrap.
			if op.baseOff < 0 || op.length < 0 || op.baseOff > len(base)-op.length {
				return nil, fmt.Errorf("checkpoint: delta: op range outside base")
			}
			if op.kind == opCopy {
				full = append(full, base[op.baseOff:op.baseOff+op.length]...)
			} else {
				at := len(full)
				full = append(full, blob[:op.length]...)
				subtle.XORBytes(full[at:], full[at:], base[op.baseOff:op.baseOff+op.length])
				blob = blob[op.length:]
			}
		case opLit:
			full = append(full, blob[:op.length]...)
			blob = blob[op.length:]
		}
		if uint64(len(full)) > fullLen {
			return nil, fmt.Errorf("checkpoint: delta: ops overflow image length")
		}
	}
	if uint64(len(full)) != fullLen || fnv1a(full) != fullSum {
		return nil, fmt.Errorf("checkpoint: delta: checksum mismatch")
	}
	return full, nil
}
