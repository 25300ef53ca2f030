package trace

import (
	"sort"
	"sync"
)

// Recorder collects the communication events of one execution. It is safe for
// concurrent use by all ranks of the execution. Recording is optional in the
// runtime: when no recorder is attached the hot path pays nothing.
//
// Events are kept in per-rank append-only buffers so that concurrent ranks
// never contend on a shared lock: each rank records its own events (sends
// from the sender's goroutine, delivers from the receiver's), so a rank's
// buffer has a single writer and its mutex is uncontended. The per-channel
// views that earlier versions maintained eagerly under a global mutex are now
// reconstructed at read time: a channel has exactly one sender rank, so the
// channel's send order is the sender's program order restricted to that
// channel (sequence numbers are assigned in that same order).
//
// Recording is clock-free: an event costs the same at any world size.
// Vector clocks are an analysis artefact, derived from the recorded program
// orders when EventsOf or ComputeAlwaysHappensBefore asks for them.
type Recorder struct {
	nranks  int
	perRank []rankLog
}

// rankLog is one rank's append-only event buffer, padded to a 64-byte cache
// line so adjacent ranks' write-hot state never false-shares.
type rankLog struct {
	mu     sync.Mutex
	events []Event
	_      [32]byte
}

// NewRecorder creates a recorder for an execution with n ranks.
func NewRecorder(n int) *Recorder {
	return &Recorder{
		nranks:  n,
		perRank: make([]rankLog, n),
	}
}

// Ranks returns the number of ranks of the recorded execution.
func (r *Recorder) Ranks() int { return r.nranks }

// Record appends an event to the event's rank buffer. The event's Clock is
// ignored (clocks are derived at analysis time), so the caller may keep
// mutating any clock it passes.
func (r *Recorder) Record(e Event) {
	if e.Rank < 0 || e.Rank >= r.nranks {
		return
	}
	e.Clock = nil
	rl := &r.perRank[e.Rank]
	rl.mu.Lock()
	rl.events = append(rl.events, e)
	rl.mu.Unlock()
}

// snapshot returns a copy of every rank's events, in program order.
func (r *Recorder) snapshot() [][]Event {
	out := make([][]Event, r.nranks)
	for rank := range out {
		rl := &r.perRank[rank]
		rl.mu.Lock()
		out[rank] = append([]Event(nil), rl.events...)
		rl.mu.Unlock()
	}
	return out
}

// EventsOf returns a copy of the events recorded on the given rank, in
// program order, each with the vector clock of the rank immediately after
// the event. The clocks are derived from the whole execution on every call
// (see deriveClocks); they are nil when the trace is not failure-free.
func (r *Recorder) EventsOf(rank int) []Event {
	if rank < 0 || rank >= r.nranks {
		return nil
	}
	events := r.snapshot()
	clocks, err := deriveClocks(events)
	if err != nil {
		return events[rank]
	}
	for i := range events[rank] {
		events[rank][i].Clock = clocks[rank][i]
	}
	return events[rank]
}

// Channels returns the set of channels on which at least one send was
// recorded, in a deterministic order.
func (r *Recorder) Channels() []ChannelKey {
	seen := make(map[ChannelKey]bool)
	for rank := 0; rank < r.nranks; rank++ {
		rl := &r.perRank[rank]
		rl.mu.Lock()
		for i := range rl.events {
			if rl.events[i].Kind == EventSend {
				seen[rl.events[i].Channel] = true
			}
		}
		rl.mu.Unlock()
	}
	keys := make([]ChannelKey, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Comm != b.Comm {
			return a.Comm < b.Comm
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return keys
}

// ChannelSends returns the sequence of send events recorded on a channel: the
// sender rank's program order restricted to the channel, which equals the
// channel's send order (re-executed sends during recovery appear again at the
// point of re-execution, exactly as they are recorded). The returned events
// carry identity metadata only (Clock is nil); use EventsOf when clocks are
// needed.
func (r *Recorder) ChannelSends(c ChannelKey) []Event {
	if c.Src < 0 || c.Src >= r.nranks {
		return nil
	}
	rl := &r.perRank[c.Src]
	rl.mu.Lock()
	defer rl.mu.Unlock()
	var out []Event
	for i := range rl.events {
		if rl.events[i].Kind == EventSend && rl.events[i].Channel == c {
			out = append(out, rl.events[i])
		}
	}
	return out
}

// SendSequenceByChannel returns, for every channel, the ordered list of
// message identities (seqnum + payload digest) sent on it. This is the
// "sub-sequence of send events per channel" of Definition 2.
func (r *Recorder) SendSequenceByChannel() map[ChannelKey][]MessageIdentity {
	out := make(map[ChannelKey][]MessageIdentity)
	for rank := 0; rank < r.nranks; rank++ {
		rl := &r.perRank[rank]
		rl.mu.Lock()
		for i := range rl.events {
			e := &rl.events[i]
			if e.Kind != EventSend {
				continue
			}
			out[e.Channel] = append(out[e.Channel],
				MessageIdentity{Seq: e.Seq, Tag: e.Tag, Bytes: e.Bytes, Digest: e.Digest})
		}
		rl.mu.Unlock()
	}
	return out
}

// SendSequenceByRank returns, for every rank, the ordered list of sends it
// performed (across all its outgoing channels), which is the per-process send
// sequence of Definition 1 (send-determinism).
func (r *Recorder) SendSequenceByRank() [][]RankSend {
	out := make([][]RankSend, r.nranks)
	for rank := 0; rank < r.nranks; rank++ {
		out[rank] = r.rankSends(rank, EventSend)
	}
	return out
}

// DeliverSequenceByRank returns, for every rank, the ordered list of message
// identities delivered to the application. Two executions of a
// channel-deterministic application may differ in these sequences (relative
// order across channels may change) while still being valid.
func (r *Recorder) DeliverSequenceByRank() [][]RankSend {
	out := make([][]RankSend, r.nranks)
	for rank := 0; rank < r.nranks; rank++ {
		out[rank] = r.rankSends(rank, EventDeliver)
	}
	return out
}

// rankSends extracts one rank's events of the given kind as RankSends.
func (r *Recorder) rankSends(rank int, kind EventKind) []RankSend {
	rl := &r.perRank[rank]
	rl.mu.Lock()
	defer rl.mu.Unlock()
	var out []RankSend
	for i := range rl.events {
		e := &rl.events[i]
		if e.Kind != kind {
			continue
		}
		out = append(out, RankSend{
			Channel: e.Channel,
			Seq:     e.Seq,
			Tag:     e.Tag,
			Bytes:   e.Bytes,
			Digest:  e.Digest,
		})
	}
	return out
}

// MessageIdentity is the identity of a message within a channel: sequence
// number plus content digest (Section 3.3 compares messages by metadata and
// payload).
type MessageIdentity struct {
	Seq    uint64
	Tag    int
	Bytes  int
	Digest uint64
}

// RankSend is one send performed by a rank, used for per-process sequences.
type RankSend struct {
	Channel ChannelKey
	Seq     uint64
	Tag     int
	Bytes   int
	Digest  uint64
}

// TotalEvents returns the total number of recorded events.
func (r *Recorder) TotalEvents() int {
	n := 0
	for rank := 0; rank < r.nranks; rank++ {
		rl := &r.perRank[rank]
		rl.mu.Lock()
		n += len(rl.events)
		rl.mu.Unlock()
	}
	return n
}
