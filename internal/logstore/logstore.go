// Package logstore implements sender-based message logging (Johnson &
// Zwaenepoel style, as used by SPBC and HydEE): the payload and envelope of
// every inter-cluster message is kept in the sender's memory, keyed by the
// outgoing channel and the per-channel sequence number, so that it can be
// replayed after a failure of the destination's cluster.
//
// The store is sharded by outgoing channel: every channel log carries its own
// mutex, so the application thread appending on one channel never contends
// with a replay daemon reading another, and the volume counters are atomics
// so the accounting reads taken by the harness are lock-free. Payloads are
// held as references into the runtime's pooled buffer fabric (internal/buf):
// AppendShared retains the sender's single payload copy instead of cloning
// it, and Truncate — log garbage collection after the destination cluster
// checkpoints — releases the references so the storage recycles.
//
// The store tracks both the currently retained volume (which can shrink when
// logs are garbage-collected) and the cumulative logged volume (which only
// grows and is what Table 1 of the paper reports as the log growth rate).
package logstore

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/buf"
	"repro/internal/mpi"
)

// Record is one logged message, in the export format of the store: the
// payload is an independent copy, safe to hold across garbage collection.
type Record struct {
	Env      mpi.Envelope
	Payload  []byte
	SendTime float64 // virtual time at which the application sent the message
}

// entry is one logged message as held internally: a reference into the
// pooled buffer fabric.
type entry struct {
	env      mpi.Envelope
	payload  *buf.Buffer
	sendTime float64
}

// channelLog holds the records of one outgoing channel in sequence order,
// behind its own lock (the store's sharding unit).
type channelLog struct {
	mu      sync.Mutex
	entries []entry
}

// locate returns the index of the entry with the given seq, or -1. Caller
// holds c.mu.
func (c *channelLog) locate(seq uint64) int {
	i := sort.Search(len(c.entries), func(i int) bool { return c.entries[i].env.Seq >= seq })
	if i < len(c.entries) && c.entries[i].env.Seq == seq {
		return i
	}
	return -1
}

// insert places e in sequence order, returning false if an entry with the
// same sequence number is already present (a re-logged duplicate). The
// common case — monotonically increasing sequence numbers — is a plain
// append; an out-of-order sequence number is placed by binary search, so the
// slice stays sorted wherever the new entry lands. Caller holds c.mu.
func (c *channelLog) insert(e entry) bool {
	n := len(c.entries)
	if n == 0 || e.env.Seq > c.entries[n-1].env.Seq {
		c.entries = append(c.entries, e)
		return true
	}
	i := sort.Search(n, func(i int) bool { return c.entries[i].env.Seq >= e.env.Seq })
	if i < n && c.entries[i].env.Seq == e.env.Seq {
		return false // duplicate from re-execution
	}
	c.entries = append(c.entries, entry{})
	copy(c.entries[i+1:], c.entries[i:])
	c.entries[i] = e
	return true
}

// Store is a per-process sender-based message log. It is safe for concurrent
// use by the application thread (appending) and the replay daemons (reading);
// operations on different channels do not contend.
type Store struct {
	mu       sync.RWMutex // guards the channel map only
	channels map[mpi.ChanKey]*channelLog

	retainedBytes   atomic.Uint64
	retainedCount   atomic.Uint64
	cumulativeBytes atomic.Uint64
	cumulativeCount atomic.Uint64
}

// New creates an empty store.
func New() *Store {
	return &Store{channels: make(map[mpi.ChanKey]*channelLog)}
}

// channel returns the channel log for key, creating it on first use.
func (s *Store) channel(key mpi.ChanKey) *channelLog {
	s.mu.RLock()
	cl := s.channels[key]
	s.mu.RUnlock()
	if cl != nil {
		return cl
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cl = s.channels[key]
	if cl == nil {
		cl = &channelLog{}
		s.channels[key] = cl
	}
	return cl
}

// lookup returns the channel log for key, or nil.
func (s *Store) lookup(key mpi.ChanKey) *channelLog {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.channels[key]
}

// account records one inserted payload in the volume counters.
func (s *Store) account(n int) {
	s.retainedBytes.Add(uint64(n))
	s.retainedCount.Add(1)
	s.cumulativeBytes.Add(uint64(n))
	s.cumulativeCount.Add(1)
}

// sub atomically subtracts v from a (two's-complement addition).
func sub(a *atomic.Uint64, v uint64) { a.Add(^(v - 1)) }

// AppendShared adds a record whose payload is a pooled buffer, retaining a
// reference instead of copying — the zero-copy path of the send hot loop.
// Appending a sequence number that is already present (which happens when a
// recovering process re-executes and re-logs its inter-cluster sends) is a
// no-op, so replay content and accounting stay consistent.
func (s *Store) AppendShared(env mpi.Envelope, payload *buf.Buffer, sendTime float64) {
	cl := s.channel(env.OutChannel())
	cl.mu.Lock()
	// Accounting happens under the shard lock so a concurrent Truncate on
	// the channel cannot subtract this entry before its add lands.
	if cl.insert(entry{env: env, payload: payload, sendTime: sendTime}) {
		payload.Retain()
		s.account(payload.Len())
	}
	cl.mu.Unlock()
}

// Append adds a record, copying its payload. Duplicate sequence numbers are
// a no-op, as in AppendShared.
func (s *Store) Append(rec Record) {
	cl := s.channel(rec.Env.OutChannel())
	cl.mu.Lock()
	// Copy into the pool only once insertion is certain.
	if n := len(cl.entries); n > 0 && rec.Env.Seq <= cl.entries[n-1].env.Seq && cl.locate(rec.Env.Seq) >= 0 {
		cl.mu.Unlock()
		return
	}
	pb := buf.Copy(rec.Payload)
	if cl.insert(entry{env: rec.Env, payload: pb, sendTime: rec.SendTime}) {
		s.account(pb.Len())
	} else {
		pb.Release()
	}
	cl.mu.Unlock()
}

// export converts an internal entry to the public Record form, copying the
// payload out of the pooled fabric.
func (e *entry) export() Record {
	return Record{
		Env:      e.env,
		Payload:  append([]byte(nil), e.payload.Bytes()...),
		SendTime: e.sendTime,
	}
}

// Get returns the record with the given sequence number on the channel to
// (dstWorld, commID).
func (s *Store) Get(dstWorld, commID int, seq uint64) (Record, bool) {
	cl := s.lookup(mpi.ChanKey{Peer: dstWorld, Comm: commID})
	if cl == nil {
		return Record{}, false
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	i := cl.locate(seq)
	if i < 0 {
		return Record{}, false
	}
	return cl.entries[i].export(), true
}

// Range returns a copy of the records on the channel to (dstWorld, commID)
// with sequence number >= fromSeq, in sequence order.
func (s *Store) Range(dstWorld, commID int, fromSeq uint64) []Record {
	cl := s.lookup(mpi.ChanKey{Peer: dstWorld, Comm: commID})
	if cl == nil {
		return nil
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	i := sort.Search(len(cl.entries), func(i int) bool { return cl.entries[i].env.Seq >= fromSeq })
	out := make([]Record, 0, len(cl.entries)-i)
	for ; i < len(cl.entries); i++ {
		out = append(out, cl.entries[i].export())
	}
	return out
}

// MaxSeq returns the highest logged sequence number on the channel, or 0.
func (s *Store) MaxSeq(dstWorld, commID int) uint64 {
	cl := s.lookup(mpi.ChanKey{Peer: dstWorld, Comm: commID})
	if cl == nil {
		return 0
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if len(cl.entries) == 0 {
		return 0
	}
	return cl.entries[len(cl.entries)-1].env.Seq
}

// Truncate drops every record with sequence number <= uptoSeq on the channel
// to (dstWorld, commID), releasing the payload references back to the buffer
// pool. It is used for log garbage collection once the destination's cluster
// has taken a checkpoint that covers those messages. The cumulative counters
// are unaffected. It returns the number of records dropped.
//
// The channel-map read lock is held for the whole operation (not just the
// shard lookup): the background committer garbage-collects remote logs
// concurrently with recovery, and holding the read lock here lets
// RestoreFrom's map swap act as a barrier — once RestoreFrom holds the write
// lock, no in-flight Truncate still references an orphaned shard or its
// accounting.
func (s *Store) Truncate(dstWorld, commID int, uptoSeq uint64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cl := s.channels[mpi.ChanKey{Peer: dstWorld, Comm: commID}]
	if cl == nil {
		return 0
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	i := sort.Search(len(cl.entries), func(i int) bool { return cl.entries[i].env.Seq > uptoSeq })
	if i == 0 {
		return 0
	}
	var bytes uint64
	for j := 0; j < i; j++ {
		bytes += uint64(cl.entries[j].payload.Len())
		cl.entries[j].payload.Release()
	}
	cl.entries = append(cl.entries[:0], cl.entries[i:]...)
	sub(&s.retainedBytes, bytes)
	sub(&s.retainedCount, uint64(i))
	return i
}

// Channels returns the channel keys present in the store, in ChanKey.Compare
// order.
func (s *Store) Channels() []mpi.ChanKey {
	s.mu.RLock()
	keys := make([]mpi.ChanKey, 0, len(s.channels))
	for k := range s.channels {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	slices.SortFunc(keys, mpi.ChanKey.Compare)
	return keys
}

// RetainedBytes returns the volume currently held in memory.
func (s *Store) RetainedBytes() uint64 { return s.retainedBytes.Load() }

// RetainedCount returns the number of records currently held.
func (s *Store) RetainedCount() uint64 { return s.retainedCount.Load() }

// CumulativeBytes returns the total volume ever logged (monotonic); this is
// the quantity whose growth rate Table 1 reports.
func (s *Store) CumulativeBytes() uint64 { return s.cumulativeBytes.Load() }

// CumulativeCount returns the total number of records ever logged.
func (s *Store) CumulativeCount() uint64 { return s.cumulativeCount.Load() }

// Snapshot returns a deep copy of the store, used when the log is saved as
// part of a coordinated checkpoint (Algorithm 1 line 15 saves (State, Logs)).
// Channels are copied one at a time, so a snapshot taken while other shards
// mutate is a per-channel-consistent cut rather than a global point in time;
// the retained counters are recomputed from the copied entries, so the
// snapshot's accounting always matches its contents exactly. (The engine
// snapshots only at quiesced points, where the cut is exact.)
func (s *Store) Snapshot() *Store {
	cp := New()
	var retBytes, retCount uint64
	for _, key := range s.Channels() {
		cl := s.lookup(key)
		if cl == nil {
			continue
		}
		cl.mu.Lock()
		entries := make([]entry, len(cl.entries))
		for i := range cl.entries {
			e := &cl.entries[i]
			entries[i] = entry{env: e.env, payload: buf.Copy(e.payload.Bytes()), sendTime: e.sendTime}
			retBytes += uint64(e.payload.Len())
			retCount++
		}
		cl.mu.Unlock()
		cp.channels[key] = &channelLog{entries: entries}
	}
	cp.retainedBytes.Store(retBytes)
	cp.retainedCount.Store(retCount)
	cp.cumulativeBytes.Store(s.cumulativeBytes.Load())
	cp.cumulativeCount.Store(s.cumulativeCount.Load())
	return cp
}

// SnapshotShared returns every record of the store in channel/sequence order
// without copying a single payload byte: the Payload slices alias the pooled
// buffers, and the returned references keep that storage alive across later
// garbage collection. This is the in-barrier capture path of a checkpoint
// wave — O(records) metadata, zero payload copies. The caller owns one
// reference per returned buffer and must Release them all once the snapshot
// has been encoded or discarded.
func (s *Store) SnapshotShared() ([]Record, []*buf.Buffer) {
	n := int(s.retainedCount.Load()) // capacity hint; append grows if racy
	out := make([]Record, 0, n)
	refs := make([]*buf.Buffer, 0, n)
	for _, key := range s.Channels() {
		cl := s.lookup(key)
		if cl == nil {
			continue
		}
		cl.mu.Lock()
		for i := range cl.entries {
			e := &cl.entries[i]
			out = append(out, Record{Env: e.env, Payload: e.payload.Bytes(), SendTime: e.sendTime})
			refs = append(refs, e.payload.Retain())
		}
		cl.mu.Unlock()
	}
	return out, refs
}

// RestoreFrom replaces the content of s with a deep copy of other, releasing
// the payload references s currently holds.
//
// Unlike the append/read/GC operations, RestoreFrom is NOT safe against a
// concurrent appender on s: an append racing the channel-map swap could land
// in an orphaned shard and be lost. The caller must quiesce the store's
// writer first — the engine only restores during rollback, between recovery
// rendezvous, when the owning rank performs no sends.
func (s *Store) RestoreFrom(other *Store) {
	cp := other.Snapshot()
	// Swap the map and the retained counters under one write lock: Truncate
	// holds the read lock for its whole run, so after this critical section
	// no concurrent GC still operates on an orphaned shard or subtracts from
	// the new counters entries it dropped from the old ones.
	s.mu.Lock()
	old := s.channels
	s.channels = cp.channels
	s.retainedBytes.Store(cp.retainedBytes.Load())
	s.retainedCount.Store(cp.retainedCount.Load())
	s.cumulativeBytes.Store(cp.cumulativeBytes.Load())
	s.cumulativeCount.Store(cp.cumulativeCount.Load())
	s.mu.Unlock()
	for _, cl := range old {
		cl.mu.Lock()
		for i := range cl.entries {
			cl.entries[i].payload.Release()
		}
		cl.entries = nil
		cl.mu.Unlock()
	}
}

// String summarizes the store.
func (s *Store) String() string {
	s.mu.RLock()
	n := len(s.channels)
	s.mu.RUnlock()
	return fmt.Sprintf("logstore{channels=%d retained=%dB cumulative=%dB}",
		n, s.retainedBytes.Load(), s.cumulativeBytes.Load())
}
