package trace

import "fmt"

// CheckChannelDeterminism compares two executions of the same algorithm and
// reports an error if the per-channel send sequences differ (Definition 2).
// The executions must involve the same number of ranks.
func CheckChannelDeterminism(a, b *Recorder) error {
	if a.Ranks() != b.Ranks() {
		return fmt.Errorf("trace: executions have different sizes: %d vs %d ranks", a.Ranks(), b.Ranks())
	}
	sa := a.SendSequenceByChannel()
	sb := b.SendSequenceByChannel()
	if len(sa) != len(sb) {
		return fmt.Errorf("trace: executions use different channel sets: %d vs %d channels", len(sa), len(sb))
	}
	for c, seqA := range sa {
		seqB, ok := sb[c]
		if !ok {
			return fmt.Errorf("trace: channel %s used in first execution only", c)
		}
		if err := compareIdentitySequences(seqA, seqB); err != nil {
			return fmt.Errorf("trace: channel %s: %w", c, err)
		}
	}
	return nil
}

// CheckSendDeterminism compares two executions and reports an error if any
// rank's total send sequence differs (Definition 1). Every send-deterministic
// execution pair is also channel-deterministic, but not vice versa.
func CheckSendDeterminism(a, b *Recorder) error {
	if a.Ranks() != b.Ranks() {
		return fmt.Errorf("trace: executions have different sizes: %d vs %d ranks", a.Ranks(), b.Ranks())
	}
	sa := a.SendSequenceByRank()
	sb := b.SendSequenceByRank()
	for rank := range sa {
		if len(sa[rank]) != len(sb[rank]) {
			return fmt.Errorf("trace: rank %d sent %d messages in one execution and %d in the other",
				rank, len(sa[rank]), len(sb[rank]))
		}
		for i := range sa[rank] {
			x, y := sa[rank][i], sb[rank][i]
			if x != y {
				return fmt.Errorf("trace: rank %d send #%d differs: %v vs %v", rank, i, x, y)
			}
		}
	}
	return nil
}

func compareIdentitySequences(a, b []MessageIdentity) error {
	if len(a) != len(b) {
		return fmt.Errorf("different lengths: %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("message #%d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// CheckFilteredChannelDeterminism compares the per-channel send sequences of
// two executions restricted to the events accepted by keep, ignoring sequence
// numbers: two runs of the same application under different checkpointing
// protocols interleave different amounts of runtime traffic (communicator
// construction, coordination barriers) on the same channels, which shifts the
// raw sequence numbers without changing the application's message stream.
// Messages are compared by (tag, size, payload digest) in channel order.
//
// A recovering rank re-executes sends it performed before the failure, which
// records the same (channel, seq) position again. Channel determinism
// requires the re-executed content to be identical, so repeated positions are
// verified against the first occurrence and then skipped; a content mismatch
// is reported as an error. Failure-free traces have no repeats, so this is
// transparent for them.
func CheckFilteredChannelDeterminism(a, b *Recorder, keep func(Event) bool) error {
	if a.Ranks() != b.Ranks() {
		return fmt.Errorf("trace: executions have different sizes: %d vs %d ranks", a.Ranks(), b.Ranks())
	}
	type ident struct {
		Tag    int
		Bytes  int
		Digest uint64
	}
	collect := func(r *Recorder) (map[ChannelKey][]ident, error) {
		out := make(map[ChannelKey][]ident)
		for _, c := range r.Channels() {
			seen := make(map[uint64]ident)
			for _, e := range r.ChannelSends(c) {
				if !keep(e) {
					continue
				}
				id := ident{Tag: e.Tag, Bytes: e.Bytes, Digest: e.Digest}
				if prev, dup := seen[e.Seq]; dup {
					if prev != id {
						return nil, fmt.Errorf("trace: channel %s: re-executed send seq %d differs from the original: %+v vs %+v",
							c, e.Seq, prev, id)
					}
					continue
				}
				seen[e.Seq] = id
				out[c] = append(out[c], id)
			}
		}
		return out, nil
	}
	sa, err := collect(a)
	if err != nil {
		return err
	}
	sb, err := collect(b)
	if err != nil {
		return err
	}
	if len(sa) != len(sb) {
		return fmt.Errorf("trace: filtered executions use different channel sets: %d vs %d channels", len(sa), len(sb))
	}
	for c, seqA := range sa {
		seqB, ok := sb[c]
		if !ok {
			return fmt.Errorf("trace: channel %s used in first execution only", c)
		}
		if len(seqA) != len(seqB) {
			return fmt.Errorf("trace: channel %s: different lengths: %d vs %d messages", c, len(seqA), len(seqB))
		}
		for i := range seqA {
			if seqA[i] != seqB[i] {
				return fmt.Errorf("trace: channel %s: message #%d differs: %+v vs %+v", c, i, seqA[i], seqB[i])
			}
		}
	}
	return nil
}

// DeliveryOrdersDiffer reports whether any rank delivered messages in a
// different relative order in the two executions. For a channel-deterministic
// but non-send-deterministic application this is expected to be possible; it
// is not an error.
func DeliveryOrdersDiffer(a, b *Recorder) bool {
	da := a.DeliverSequenceByRank()
	db := b.DeliverSequenceByRank()
	if len(da) != len(db) {
		return true
	}
	for rank := range da {
		if len(da[rank]) != len(db[rank]) {
			return true
		}
		for i := range da[rank] {
			if da[rank][i] != db[rank][i] {
				return true
			}
		}
	}
	return false
}

// AlwaysHappensBefore holds the result of intersecting the happened-before
// relation over several executions for a selected set of communication
// events: if e1 -> e2 in every recorded execution, then e1 A-> e2 according
// to the recorded evidence (Definition 3). With a finite number of
// executions this is an over-approximation of the true relation, which is a
// property of the algorithm; it is used by tests and by the trace tool to
// explain why the pattern API is needed.
type AlwaysHappensBefore struct {
	pairs map[msgPair]bool
}

type msgPair struct {
	before MsgID
	after  MsgID
}

// ComputeAlwaysHappensBefore intersects deliver-event ordering across the
// given executions. It considers deliver events only (the events the SPBC
// mismatch analysis cares about) and returns the relation restricted to
// messages present in every execution. Clocks are derived from each
// execution's program orders, so every execution must be failure-free; an
// execution whose clocks cannot be derived is an error naming the message.
func ComputeAlwaysHappensBefore(execs ...*Recorder) (*AlwaysHappensBefore, error) {
	ahb := &AlwaysHappensBefore{pairs: make(map[msgPair]bool)}
	if len(execs) == 0 {
		return ahb, nil
	}
	// Collect, for each execution, the vector clock of each deliver event.
	perExec := make([]map[MsgID]VectorClock, len(execs))
	common := make(map[MsgID]int)
	for i, r := range execs {
		events := r.snapshot()
		clocks, err := deriveClocks(events)
		if err != nil {
			return nil, fmt.Errorf("trace: execution %d: %w", i, err)
		}
		m := make(map[MsgID]VectorClock)
		for rank := range events {
			for j, e := range events[rank] {
				if e.Kind == EventDeliver {
					m[MsgID{Channel: e.Channel, Seq: e.Seq}] = clocks[rank][j]
				}
			}
		}
		perExec[i] = m
		for id := range m {
			common[id]++
		}
	}
	var ids []MsgID
	for id, n := range common {
		if n == len(execs) {
			ids = append(ids, id)
		}
	}
	// For every ordered pair present in all executions, keep it if ordered
	// the same way by happened-before everywhere.
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			always := true
			for _, m := range perExec {
				if !m[a].HappensBefore(m[b]) {
					always = false
					break
				}
			}
			if always {
				ahb.pairs[msgPair{before: a, after: b}] = true
			}
		}
	}
	return ahb, nil
}

// Before reports whether deliver(a) always-happens-before deliver(b)
// according to the recorded evidence.
func (a *AlwaysHappensBefore) Before(x, y MsgID) bool {
	return a.pairs[msgPair{before: x, after: y}]
}

// Len returns the number of ordered pairs in the relation.
func (a *AlwaysHappensBefore) Len() int { return len(a.pairs) }
