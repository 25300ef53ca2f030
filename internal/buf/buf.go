// Package buf provides the zero-copy payload fabric of the runtime: a
// size-classed, sync.Pool-backed, reference-counted byte buffer.
//
// Sender-based logging systems (Johnson & Zwaenepoel; the paper's SPBC) treat
// the sender's log as the same memory the network sends from: the payload is
// copied once out of the application buffer and that single copy is then
// shared by the in-flight message, the receiver hand-off, the sender-side
// log record and, after a failure, the replayed message. Buffer makes that sharing safe in a concurrent runtime: every
// holder owns one reference, and the storage is recycled through a per-size-
// class pool when the last reference is released (at message completion, at
// log garbage collection, or when a duplicate is dropped).
//
// Ownership rules:
//
//   - Get and Copy return a buffer with one reference, owned by the caller.
//   - A component that stores the buffer beyond the current call must Retain
//     it (the log store does this in AppendShared).
//   - Release drops one reference; the last Release returns the storage to
//     the pool. Using a buffer after releasing the last reference is a bug,
//     and Release panics on refcount underflow to surface it.
//
// Buffers larger than the largest size class are allocated exactly and not
// recycled; the zero-size buffer is a shared singleton.
package buf

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// minClassBits is the smallest pooled size class (64 bytes): smaller
	// requests round up to it.
	minClassBits = 6
	// maxClassBits is the largest pooled size class (1 MiB): larger requests
	// bypass the pools.
	maxClassBits = 20

	numClasses = maxClassBits - minClassBits + 1
)

// Buffer is a reference-counted, pool-backed payload buffer.
type Buffer struct {
	data  []byte
	refs  atomic.Int32
	class int8 // pool class index, or -1 for unpooled allocations
}

// pools holds one sync.Pool per size class; each pool stores *Buffer whose
// data capacity is exactly the class size.
var pools [numClasses]sync.Pool

// Stats counts pool traffic; useful to confirm that a steady-state workload
// recycles instead of allocating.
type Stats struct {
	// Gets is the number of Get/Copy calls served.
	Gets uint64
	// Misses is the number of Gets that had to allocate (pool empty or the
	// request was larger than the largest class).
	Misses uint64
	// Recycles is the number of buffers returned to a pool by Release.
	Recycles uint64
}

var gets, misses, recycles atomic.Uint64

// PoolStats returns a snapshot of the global pool counters.
func PoolStats() Stats {
	return Stats{Gets: gets.Load(), Misses: misses.Load(), Recycles: recycles.Load()}
}

// classFor returns the pool class index for a payload of n bytes, or -1 if
// the request bypasses the pools.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < minClassBits {
		b = minClassBits
	}
	return b - minClassBits
}

// zeroBuf backs every zero-length Get: it is never pooled and its refcount is
// kept permanently positive so that stray Releases cannot recycle it.
var zeroBuf = func() *Buffer {
	b := &Buffer{data: []byte{}, class: -1}
	b.refs.Store(1 << 30)
	return b
}()

// Get returns a buffer of length n with one reference. The content is not
// zeroed: callers overwrite it (Copy) or treat it as scratch.
func Get(n int) *Buffer {
	if n < 0 {
		panic(fmt.Sprintf("buf: negative length %d", n))
	}
	gets.Add(1)
	if n == 0 {
		// The singleton still hands out one reference per Get so the
		// own-one/release-one contract stays symmetric; its large base count
		// keeps stray releases from ever recycling it.
		zeroBuf.refs.Add(1)
		return zeroBuf
	}
	class := classFor(n)
	if class < 0 {
		misses.Add(1)
		b := &Buffer{data: make([]byte, n), class: -1}
		b.refs.Store(1)
		return b
	}
	if v := pools[class].Get(); v != nil {
		b := v.(*Buffer)
		b.data = b.data[:n]
		b.refs.Store(1)
		return b
	}
	misses.Add(1)
	b := &Buffer{data: make([]byte, n, 1<<(class+minClassBits)), class: int8(class)}
	b.refs.Store(1)
	return b
}

// Copy returns a buffer holding a copy of p, with one reference.
func Copy(p []byte) *Buffer {
	b := Get(len(p))
	copy(b.data, p)
	return b
}

// Bytes returns the payload. The slice is valid until the last reference is
// released.
func (b *Buffer) Bytes() []byte { return b.data }

// Len returns the payload length.
func (b *Buffer) Len() int { return len(b.data) }

// Truncate shrinks the payload to its first n bytes. It is used by writers
// that obtain a buffer sized to an upper bound and then settle on the exact
// length (the checkpoint encoder); the full class-sized storage is restored
// when the buffer is recycled.
func (b *Buffer) Truncate(n int) {
	if n < 0 || n > len(b.data) {
		panic(fmt.Sprintf("buf: Truncate(%d) outside [0,%d]", n, len(b.data)))
	}
	b.data = b.data[:n]
}

// Retain adds a reference and returns b, so a store can retain in one
// expression.
func (b *Buffer) Retain() *Buffer {
	if b.refs.Add(1) <= 1 {
		panic("buf: Retain on a released buffer")
	}
	return b
}

// Release drops one reference. The last release recycles pooled storage; it
// panics if the buffer was already fully released.
func (b *Buffer) Release() {
	refs := b.refs.Add(-1)
	if refs > 0 {
		return
	}
	if refs < 0 {
		panic("buf: Release without matching reference")
	}
	if b.class >= 0 {
		b.data = b.data[:cap(b.data)]
		recycles.Add(1)
		pools[int(b.class)].Put(b)
	}
}

// Refs returns the current reference count (for tests and diagnostics).
func (b *Buffer) Refs() int { return int(b.refs.Load()) }
