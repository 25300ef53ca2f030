package checkpoint

// Hand-rolled binary codec for checkpoints. The commit phase of a checkpoint
// wave encodes every rank's checkpoint off the critical path; encoding/gob —
// reflection-driven, type-dictionary-prefixed and allocation-heavy — was the
// dominant cost of the old in-barrier save. The binary format below is
// deterministic (map entries sorted), length-prefixed, versioned, and writes
// into a pooled buffer sized by an exact upper bound, so a steady state of
// checkpoint waves recycles its encode storage instead of growing the heap.
//
// The property test holds the codec to encoding/gob: a binary round trip must
// produce exactly the checkpoint a gob round trip produces.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/buf"
	"repro/internal/mpi"
)

// codecMagic identifies a binary-encoded checkpoint; the trailing byte is the
// format version (bumped to 2 when the policy-epoch/wave split added the Wave
// field).
var codecMagic = [4]byte{'S', 'C', 'K', 2}

const (
	// maxVarintLen is the worst-case size of one encoded integer.
	maxVarintLen = binary.MaxVarintLen64
	// codecHeaderLen is the fixed prefix: magic + version.
	codecHeaderLen = len("SCK") + 1
)

// encoder appends into a pre-sized byte slice. All integers are zig-zag
// varints (fields like tags may be negative: wildcard constants), floats are
// fixed 8-byte little-endian IEEE bit patterns.
type encoder struct {
	out []byte
}

func (e *encoder) varint(v int64)  { e.out = binary.AppendVarint(e.out, v) }
func (e *encoder) int(v int)       { e.varint(int64(v)) }
func (e *encoder) uint64(v uint64) { e.out = binary.AppendUvarint(e.out, v) }
func (e *encoder) float(v float64) {
	e.out = binary.LittleEndian.AppendUint64(e.out, math.Float64bits(v))
}
func (e *encoder) bool(v bool) {
	if v {
		e.out = append(e.out, 1)
	} else {
		e.out = append(e.out, 0)
	}
}

func (e *encoder) bytes(p []byte) {
	e.uint64(uint64(len(p)))
	e.out = append(e.out, p...)
}

func (e *encoder) envelope(env *mpi.Envelope) {
	e.int(env.Source)
	e.int(env.Dest)
	e.int(env.CommID)
	e.int(env.Tag)
	e.uint64(env.Seq)
	e.uint64(uint64(env.Match.Pattern))
	e.uint64(uint64(env.Match.Iteration))
	e.int(env.Bytes)
}

// decoder consumes from a byte slice, failing (never panicking) on truncated
// or oversized input.
type decoder struct {
	in  []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: decode: truncated or invalid %s", what)
	}
}

func (d *decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.in)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.in = d.in[n:]
	return v
}

func (d *decoder) int(what string) int { return int(d.varint(what)) }

func (d *decoder) uint64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.in)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.in = d.in[n:]
	return v
}

func (d *decoder) float(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.in) < 8 {
		d.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.in))
	d.in = d.in[8:]
	return v
}

func (d *decoder) bool(what string) bool {
	if d.err != nil {
		return false
	}
	if len(d.in) < 1 {
		d.fail(what)
		return false
	}
	v := d.in[0]
	d.in = d.in[1:]
	if v > 1 {
		d.fail(what)
		return false
	}
	return v == 1
}

// count reads a collection length and bounds it by the remaining input, so a
// corrupted length cannot drive a huge allocation.
func (d *decoder) count(what string) int {
	n := d.uint64(what)
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.in)) {
		d.fail(what + " count")
		return 0
	}
	return int(n)
}

func (d *decoder) bytes(what string) []byte {
	n := d.count(what)
	if d.err != nil || n == 0 {
		// Empty decodes to nil, matching the gob reference path.
		return nil
	}
	out := make([]byte, n)
	copy(out, d.in[:n])
	d.in = d.in[n:]
	return out
}

func (d *decoder) envelope(what string) mpi.Envelope {
	var env mpi.Envelope
	env.Source = d.int(what)
	env.Dest = d.int(what)
	env.CommID = d.int(what)
	env.Tag = d.int(what)
	env.Seq = d.uint64(what)
	env.Match.Pattern = uint32(d.uint64(what))
	env.Match.Iteration = uint32(d.uint64(what))
	env.Bytes = d.int(what)
	return env
}

// encodedBound returns an upper bound on the encoded size of the checkpoint,
// used to size the pooled output buffer so encoding never reallocates.
func encodedBound(cp *Checkpoint) int {
	const envBound = 8 * maxVarintLen
	n := codecHeaderLen + 7*maxVarintLen + 2*8 // scalars + Time + Clock
	n += maxVarintLen + len(cp.AppState)
	n += maxVarintLen + len(cp.Protocol)
	n += 1 // Channels presence flag
	if c := cp.Channels; c != nil {
		n += 4 * maxVarintLen // collection counts
		n += len(c.Out) * 3 * maxVarintLen
		n += len(c.In) * 4 * maxVarintLen
		n += len(c.CollSeq) * 2 * maxVarintLen
		for i := range c.Queued {
			n += envBound + maxVarintLen + len(c.Queued[i].Payload) + 8 + 1
		}
	}
	n += maxVarintLen
	for i := range cp.Logs {
		n += envBound + maxVarintLen + len(cp.Logs[i].Payload) + 8
	}
	return n
}

// sortedChanKeys returns the keys of a ChanKey-indexed map in deterministic
// (ChanKey.Compare) order.
func sortedChanKeys[T any](m map[mpi.ChanKey]T) []mpi.ChanKey {
	keys := make([]mpi.ChanKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, mpi.ChanKey.Compare)
	return keys
}

// EncodeBuffer serializes a checkpoint into a pooled buffer sized to the
// encoded length. The caller owns the returned buffer's single reference and
// must Release it once the image is persisted (or retained elsewhere).
func EncodeBuffer(cp *Checkpoint) (*buf.Buffer, error) {
	if cp == nil {
		return nil, fmt.Errorf("checkpoint: encode: nil checkpoint")
	}
	b := buf.Get(encodedBound(cp))
	data := b.Bytes()
	e := encoder{out: data[:0]}
	e.out = append(e.out, codecMagic[:]...)
	e.int(cp.Rank)
	e.int(cp.Cluster)
	e.int(cp.Iteration)
	e.int(cp.Epoch)
	e.int(cp.Wave)
	e.float(cp.Time)
	e.bytes(cp.AppState)

	e.bool(cp.Channels != nil)
	if c := cp.Channels; c != nil {
		e.uint64(uint64(len(c.Out)))
		for _, k := range sortedChanKeys(c.Out) {
			e.int(k.Peer)
			e.int(k.Comm)
			e.uint64(c.Out[k])
		}
		e.uint64(uint64(len(c.In)))
		for _, k := range sortedChanKeys(c.In) {
			st := c.In[k]
			e.int(k.Peer)
			e.int(k.Comm)
			e.uint64(st.MaxSeqSeen)
			e.uint64(st.Delivered)
		}
		e.uint64(uint64(len(c.Queued)))
		for i := range c.Queued {
			q := &c.Queued[i]
			e.envelope(&q.Env)
			e.bytes(q.Payload)
			e.float(q.ArriveTime)
			e.bool(q.Replayed)
		}
		comms := make([]int, 0, len(c.CollSeq))
		for comm := range c.CollSeq {
			comms = append(comms, comm)
		}
		sort.Ints(comms)
		e.uint64(uint64(len(comms)))
		for _, comm := range comms {
			e.int(comm)
			e.uint64(c.CollSeq[comm])
		}
		e.float(c.Clock)
	}

	e.uint64(uint64(len(cp.Logs)))
	for i := range cp.Logs {
		r := &cp.Logs[i]
		e.envelope(&r.Env)
		e.bytes(r.Payload)
		e.float(r.SendTime)
	}
	e.bytes(cp.Protocol)

	// If encodedBound ever under-counts a future field, append either grows
	// within the pooled storage's class capacity (past len(data), which
	// Truncate would reject) or reallocates away from it entirely (leaving
	// the buffer full of recycled garbage behind a valid magic). Fail loudly
	// in both cases instead of persisting a corrupt image.
	if len(e.out) > len(data) || (len(e.out) > 0 && &e.out[0] != &data[0]) {
		b.Release()
		return nil, fmt.Errorf("checkpoint: encode: image (%dB) outgrew its bound (%dB): encodedBound is stale", len(e.out), len(data))
	}
	b.Truncate(len(e.out))
	return b, nil
}

// Encode serializes a checkpoint with the binary codec, returning an exact
// heap copy of the image (the pooled encode buffer is recycled).
func Encode(cp *Checkpoint) ([]byte, error) {
	b, err := EncodeBuffer(cp)
	if err != nil {
		return nil, err
	}
	return heapCopy(b), nil
}

// Decode deserializes a checkpoint produced by Encode/EncodeBuffer into a
// fully materialized form: every payload is an independent heap copy, so the
// result's lifetime is decoupled from the encoded image and the buffer pool.
func Decode(raw []byte) (*Checkpoint, error) {
	if len(raw) < codecHeaderLen || !bytes.Equal(raw[:4], codecMagic[:]) {
		return nil, fmt.Errorf("checkpoint: decode: bad magic or version")
	}
	d := decoder{in: raw[codecHeaderLen:]}
	cp := &Checkpoint{}
	cp.Rank = d.int("rank")
	cp.Cluster = d.int("cluster")
	cp.Iteration = d.int("iteration")
	cp.Epoch = d.int("epoch")
	cp.Wave = d.int("wave")
	cp.Time = d.float("time")
	cp.AppState = d.bytes("app state")

	if d.bool("channels flag") && d.err == nil {
		// Collections are allocated lazily so that empty ones decode to nil,
		// exactly as the gob reference path does (gob omits zero values).
		c := &mpi.ChannelSnapshot{}
		if n := d.count("out channels"); n > 0 && d.err == nil {
			c.Out = make(map[mpi.ChanKey]uint64, n)
			for ; n > 0 && d.err == nil; n-- {
				k := mpi.ChanKey{Peer: d.int("out key"), Comm: d.int("out key")}
				c.Out[k] = d.uint64("out seq")
			}
		}
		if n := d.count("in channels"); n > 0 && d.err == nil {
			c.In = make(map[mpi.ChanKey]mpi.InChannelState, n)
			for ; n > 0 && d.err == nil; n-- {
				k := mpi.ChanKey{Peer: d.int("in key"), Comm: d.int("in key")}
				c.In[k] = mpi.InChannelState{
					MaxSeqSeen: d.uint64("in max seq"),
					Delivered:  d.uint64("in delivered"),
				}
			}
		}
		for n := d.count("queued"); n > 0 && d.err == nil; n-- {
			c.Queued = append(c.Queued, mpi.QueuedMessage{
				Env:        d.envelope("queued env"),
				Payload:    d.bytes("queued payload"),
				ArriveTime: d.float("queued arrive time"),
				Replayed:   d.bool("queued replayed"),
			})
		}
		if n := d.count("coll seq"); n > 0 && d.err == nil {
			c.CollSeq = make(map[int]uint64, n)
			for ; n > 0 && d.err == nil; n-- {
				comm := d.int("coll comm")
				c.CollSeq[comm] = d.uint64("coll seq")
			}
		}
		c.Clock = d.float("clock")
		cp.Channels = c
	}

	for n := d.count("logs"); n > 0 && d.err == nil; n-- {
		cp.Logs = append(cp.Logs, LogRecord{
			Env:      d.envelope("log env"),
			Payload:  d.bytes("log payload"),
			SendTime: d.float("log send time"),
		})
	}
	cp.Protocol = d.bytes("protocol state")

	if d.err != nil {
		return nil, d.err
	}
	if len(d.in) != 0 {
		return nil, fmt.Errorf("checkpoint: decode: %d trailing bytes", len(d.in))
	}
	return cp, nil
}
