// Package trace records communication events of an execution and provides
// the analyses the paper builds on: per-channel send sequences (used to check
// channel-determinism, Definition 2), per-process send sequences (used to
// check send-determinism, Definition 1), Lamport's happened-before relation
// via vector clocks, and the intersection of happened-before across several
// executions, which approximates the always-happens-before relation
// (Definition 3).
//
// Recording carries no clocks. The vector clocks are derived at analysis
// time by replaying the recorded per-rank program orders, matching each
// deliver to its send by (channel, seq); this needs a failure-free trace.
package trace

import "fmt"

// EventKind enumerates the communication events associated with MPI
// point-to-point communication in Section 3.2 of the paper.
type EventKind int

const (
	// EventSend is the application-level event of initiating a send.
	EventSend EventKind = iota
	// EventPost is the library-level event of posting a reception request.
	EventPost
	// EventMatch is the library-level event of matching a request and a message.
	EventMatch
	// EventComplete is the library-level completion of a reception request.
	EventComplete
	// EventDeliver is the application-level event of a message becoming
	// available to the process.
	EventDeliver
)

// String returns a readable name for the event kind.
func (k EventKind) String() string {
	switch k {
	case EventSend:
		return "send"
	case EventPost:
		return "post"
	case EventMatch:
		return "match"
	case EventComplete:
		return "complete"
	case EventDeliver:
		return "deliver"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// ChannelKey identifies a directed communication channel in the context of a
// communicator, as in Section 3.2: there can be multiple channels between two
// processes, one per communicator.
type ChannelKey struct {
	Src  int
	Dst  int
	Comm int
}

// String formats the channel as src->dst@comm.
func (c ChannelKey) String() string {
	return fmt.Sprintf("%d->%d@%d", c.Src, c.Dst, c.Comm)
}

// MsgID uniquely identifies a message in an execution of a
// channel-deterministic algorithm: the channel plus the per-channel sequence
// number (Section 3.3).
type MsgID struct {
	Channel ChannelKey
	Seq     uint64
}

// String formats the message identifier.
func (m MsgID) String() string {
	return fmt.Sprintf("%s#%d", m.Channel, m.Seq)
}

// Event is one recorded communication event.
type Event struct {
	Kind    EventKind
	Rank    int        // rank on which the event occurred
	Channel ChannelKey // channel of the message involved (zero for pure posts with wildcards)
	Seq     uint64     // per-channel sequence number of the message
	Tag     int
	Bytes   int
	Time    float64 // virtual time of the event
	// Payload digest; two messages with equal MsgID and equal digest are
	// considered "the same" across executions (Section 3.3).
	Digest uint64
	// Clock is the vector clock of the rank immediately after the event,
	// used to extract happened-before relations. Record ignores it;
	// EventsOf fills it with the derived clock.
	Clock VectorClock
}

// FNV-1a 64-bit, implemented locally to keep payload digesting allocation-free
// on the hot path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Digest returns a 64-bit FNV-1a hash of a payload, used to compare message
// contents across executions.
func Digest(payload []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range payload {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}
