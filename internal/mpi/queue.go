package mpi

// This file implements the indexed matching structures of the runtime: the
// posted-receive queue and the unexpected-message queue are maps keyed by
// (source, communicator, tag) with per-key FIFO rings, replacing the linear
// scans over flat slices. Matching semantics are unchanged — a message
// matches the earliest posted matching request, a request matches the
// earliest arrived matching message — because every queued entry carries a
// monotonically increasing stamp that totally orders entries across keys;
// candidate keys (exact plus wildcard combinations) are scanned and the
// stamp-minimal match wins, which is exactly what the flat scan computed.
//
// An index holds only live keys: a key is present iff its ring is non-empty.
// Every collective invocation matches under a fresh tag, so without this
// invariant the maps would gain a key per peer per collective and never lose
// one, and wildcard receives and channel snapshots would scan the keys of
// long-finished collectives. A ring emptied by a removal leaves the map for
// the index's spare stack, and the next key that needs a ring takes it from
// there, so steady-state traffic — point-to-point or collective — reuses the
// same rings and their storage.

// matchKey indexes a matching queue. For unexpected messages the fields are
// always concrete; for posted requests source may be AnySource and tag
// AnyTag.
type matchKey struct {
	source int
	comm   int
	tag    int
}

// matchIndex is one matching queue: the live keys' rings plus the spare
// stack of emptied rings. It is owned by a Proc and only touched under p.mu.
type matchIndex[T any] struct {
	rings map[matchKey]*ring[T]
	spare *ring[T] // top of the spare stack, linked through ring.next
}

func newMatchIndex[T any]() matchIndex[T] {
	return matchIndex[T]{rings: make(map[matchKey]*ring[T])}
}

// push appends v to the ring of key k, giving the key a spare ring if it is
// not live.
func (x *matchIndex[T]) push(k matchKey, v T) {
	q := x.rings[k]
	if q == nil {
		if q = x.spare; q != nil {
			x.spare, q.next = q.next, nil
		} else {
			q = &ring[T]{}
		}
		x.rings[k] = q
	}
	q.push(v)
}

// removeAt deletes the entry at absolute index i of q, the ring of key k.
func (x *matchIndex[T]) removeAt(k matchKey, q *ring[T], i int) {
	q.removeAt(i)
	x.retireIfEmpty(k, q)
}

// retireIfEmpty drops key k from the index if its ring q has emptied, and
// keeps q for reuse.
func (x *matchIndex[T]) retireIfEmpty(k matchKey, q *ring[T]) {
	if q.size() > 0 {
		return
	}
	delete(x.rings, k)
	q.next, x.spare = x.spare, q
}

// clear hands every live entry to release (if non-nil) and retires every
// ring, leaving the index empty.
func (x *matchIndex[T]) clear(release func(T)) {
	for _, q := range x.rings {
		if release != nil {
			for i := q.head; i < len(q.items); i++ {
				release(q.items[i])
			}
		}
		q.clear()
		q.next, x.spare = x.spare, q
	}
	clear(x.rings)
}

// ring is a FIFO with O(1) amortized push and dequeue-from-head. Entries are
// stored in a slice with a moving head; the slice is reset when it empties
// and compacted when the dead prefix dominates.
type ring[T any] struct {
	items []T
	head  int
	next  *ring[T] // spare-stack link while the ring is retired
}

// size returns the number of live entries.
func (q *ring[T]) size() int { return len(q.items) - q.head }

// push appends an entry.
func (q *ring[T]) push(v T) {
	if q.head == len(q.items) && q.head > 0 {
		q.reset()
	}
	q.items = append(q.items, v)
}

// removeAt deletes the entry at absolute index i (q.head <= i < len(q.items)).
func (q *ring[T]) removeAt(i int) {
	var zero T
	if i == q.head {
		q.items[i] = zero
		q.head++
		if q.head == len(q.items) {
			q.reset()
		} else if q.head >= 32 && q.head*2 >= len(q.items) {
			q.compact()
		}
		return
	}
	copy(q.items[i:], q.items[i+1:])
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
}

// reset drops the dead prefix of an empty ring, keeping the storage.
func (q *ring[T]) reset() {
	q.items = q.items[:0]
	q.head = 0
}

// clear zeroes every entry, live or dead, and empties the ring, keeping the
// storage.
func (q *ring[T]) clear() {
	clear(q.items)
	q.reset()
}

// compact moves live entries to the front, dropping the dead prefix.
func (q *ring[T]) compact() {
	var zero T
	n := copy(q.items, q.items[q.head:])
	for i := n; i < len(q.items); i++ {
		q.items[i] = zero
	}
	q.items = q.items[:n]
	q.head = 0
}
