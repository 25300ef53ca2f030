package trace

import "fmt"

// VectorClock is a fixed-size vector clock over the ranks of an execution.
// It captures Lamport's happened-before relation: event a happened before
// event b iff a's clock is component-wise <= b's clock and differs in at
// least one component.
type VectorClock []uint64

// NewVectorClock returns a zeroed vector clock for n ranks.
func NewVectorClock(n int) VectorClock {
	return make(VectorClock, n)
}

// Clone returns an independent copy of the clock.
func (v VectorClock) Clone() VectorClock {
	c := make(VectorClock, len(v))
	copy(c, v)
	return c
}

// Tick increments the component of the given rank and returns the clock.
func (v VectorClock) Tick(rank int) VectorClock {
	if rank >= 0 && rank < len(v) {
		v[rank]++
	}
	return v
}

// Merge sets v to the component-wise maximum of v and other. The two clocks
// must come from the same execution: a length mismatch means a wired-up-wrong
// world size, and silently truncating would mask it as a passing determinism
// check, so Merge panics instead.
func (v VectorClock) Merge(other VectorClock) VectorClock {
	if len(v) != len(other) {
		panic(fmt.Sprintf("trace: Merge of vector clocks from different worlds: len %d vs %d", len(v), len(other)))
	}
	for i := range v {
		if other[i] > v[i] {
			v[i] = other[i]
		}
	}
	return v
}

// HappensBefore reports whether v happened before other: v <= other
// component-wise and v != other. Like Merge it panics on a length mismatch —
// clocks of different sizes belong to different worlds and comparing them is
// a bug, not a "false".
func (v VectorClock) HappensBefore(other VectorClock) bool {
	if len(v) != len(other) {
		panic(fmt.Sprintf("trace: HappensBefore of vector clocks from different worlds: len %d vs %d", len(v), len(other)))
	}
	strictly := false
	for i := range v {
		if v[i] > other[i] {
			return false
		}
		if v[i] < other[i] {
			strictly = true
		}
	}
	return strictly
}

// Concurrent reports whether neither clock happened before the other.
func (v VectorClock) Concurrent(other VectorClock) bool {
	return !v.HappensBefore(other) && !other.HappensBefore(v) && !v.Equal(other)
}

// Equal reports whether the two clocks are identical.
func (v VectorClock) Equal(other VectorClock) bool {
	if len(v) != len(other) {
		return false
	}
	for i := range v {
		if v[i] != other[i] {
			return false
		}
	}
	return true
}

// deriveClocks computes the vector clock of every event of an execution,
// given each rank's events in program order: clocks[r][i] is rank r's clock
// immediately after events[r][i]. It replays the ranks' program orders: every
// event ticks its rank, and a deliver first merges the clock of its send,
// named by (channel, seq) — so a deliver waits until its send has been
// replayed. A message must therefore have exactly one send, which holds for
// failure-free traces only: a re-executed send and a deliver whose send was
// never recorded are errors.
func deriveClocks(events [][]Event) ([][]VectorClock, error) {
	type pos struct{ rank, idx int }
	sendAt := make(map[MsgID]pos)
	for r := range events {
		for i := range events[r] {
			if e := &events[r][i]; e.Kind == EventSend {
				id := MsgID{Channel: e.Channel, Seq: e.Seq}
				if _, dup := sendAt[id]; dup {
					return nil, fmt.Errorf("trace: message %s sent twice (re-executed): clocks need a failure-free trace", id)
				}
				sendAt[id] = pos{r, i}
			}
		}
	}
	n := len(events)
	clocks := make([][]VectorClock, n)
	cur := make([]VectorClock, n)
	for r := range events {
		clocks[r] = make([]VectorClock, len(events[r]))
		cur[r] = NewVectorClock(n)
	}
	next := make([]int, n)
	for progress := true; progress; {
		progress = false
		for r := range events {
			for ; next[r] < len(events[r]); next[r]++ {
				e := &events[r][next[r]]
				if e.Kind == EventDeliver {
					id := MsgID{Channel: e.Channel, Seq: e.Seq}
					s, ok := sendAt[id]
					if !ok {
						return nil, fmt.Errorf("trace: message %s delivered on rank %d but never sent", id, r)
					}
					sent := clocks[s.rank][s.idx]
					if sent == nil {
						break // the send has not been replayed yet
					}
					cur[r].Merge(sent)
				}
				cur[r].Tick(r)
				clocks[r][next[r]] = cur[r].Clone()
				progress = true
			}
		}
	}
	for r := range events {
		if next[r] < len(events[r]) {
			e := &events[r][next[r]]
			return nil, fmt.Errorf("trace: message %s delivered on rank %d before it was sent", MsgID{Channel: e.Channel, Seq: e.Seq}, r)
		}
	}
	return clocks, nil
}
