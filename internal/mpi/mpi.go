// Package mpi implements a from-scratch, in-process message-passing runtime
// with MPI-like semantics, used as the substrate for the SPBC reproduction.
//
// Each rank of a World runs as a goroutine and owns a virtual clock
// (simnet.Clock). The runtime reproduces the MPI point-to-point semantics the
// SPBC paper relies on (Section 3.2):
//
//   - reliable FIFO channels per (source, destination, communicator);
//   - non-blocking sends and receives with requests
//     (Isend/Irecv/Wait/Waitall/Waitany);
//   - matching of reception requests against incoming messages by
//     (source, tag, communicator), including the MPI_ANY_SOURCE and
//     MPI_ANY_TAG wildcards, with a posted-receive queue and an
//     unexpected-message queue as in MPICH;
//   - eager and rendezvous protocols selected by message size;
//   - a blocking Probe;
//   - collective operations implemented on top of point-to-point
//     communication (the paper's assumption).
//
// Checkpointing protocols (SPBC, HydEE) interpose through the Protocol
// interface: they stamp messages and requests with extra identifiers
// (pattern, iteration), log payloads at send time and suppress sends during
// recovery. The runtime additionally exposes the hooks needed for recovery:
// channel-state snapshot/restore, and replay injection (World.InjectReplay),
// through which the recovery leader re-delivers logged inter-cluster
// messages, in the logged buffers themselves, to a rolled-back cluster.
package mpi

import (
	"cmp"
	"errors"
	"fmt"
)

// AnySource is the wildcard source for reception requests (MPI_ANY_SOURCE).
const AnySource = -1

// AnyTag is the wildcard tag for reception requests (MPI_ANY_TAG).
const AnyTag = -1

// collTagBase is the start of the tag space reserved for collective
// operations; application tags must stay below it.
const collTagBase = 1 << 24

// MaxAppTag is the largest tag an application may use.
const MaxAppTag = collTagBase - 1

// ErrWorldStopped is returned by communication calls after the world has been
// aborted.
var ErrWorldStopped = errors.New("mpi: world stopped")

// ErrPendingRequests is returned by snapshot operations when the process
// still has incomplete requests.
var ErrPendingRequests = errors.New("mpi: process has pending requests")

// MatchID is the extra identifier SPBC attaches to messages and reception
// requests (Section 4.3 of the paper): the active communication pattern and
// its iteration number. The zero value is the default pattern.
type MatchID struct {
	Pattern   uint32
	Iteration uint32
}

// IsDefault reports whether the identifier is the default pattern.
func (m MatchID) IsDefault() bool { return m == MatchID{} }

// String formats the identifier.
func (m MatchID) String() string {
	return fmt.Sprintf("(p%d,i%d)", m.Pattern, m.Iteration)
}

// Envelope is the metadata of a message: source and destination (world
// ranks), communicator, tag, the per-channel sequence number and the extra
// SPBC identifier.
type Envelope struct {
	Source int
	Dest   int
	CommID int
	Tag    int
	Seq    uint64
	Match  MatchID
	Bytes  int
}

// Channel returns the channel key of the message's channel.
func (e Envelope) Channel() ChanKey {
	return ChanKey{Peer: e.Source, Comm: e.CommID}
}

// OutChannel returns the channel key from the sender's point of view.
func (e Envelope) OutChannel() ChanKey {
	return ChanKey{Peer: e.Dest, Comm: e.CommID}
}

// ChanKey identifies a channel end-point: the peer's world rank and the
// communicator. From a receiver's point of view Peer is the source; from a
// sender's point of view Peer is the destination.
type ChanKey struct {
	Peer int
	Comm int
}

// Compare orders channel keys by communicator, then peer: the one
// deterministic channel order (log stores list channels in it, and
// checkpoint images encode them in it). It returns -1, 0 or +1, as
// cmp.Compare does.
func (k ChanKey) Compare(o ChanKey) int {
	if c := cmp.Compare(k.Comm, o.Comm); c != 0 {
		return c
	}
	return cmp.Compare(k.Peer, o.Peer)
}

// Status describes a completed reception, as MPI_Status does.
type Status struct {
	// Source is the comm-relative rank of the sender.
	Source int
	// Tag of the received message.
	Tag int
	// Bytes actually received.
	Bytes int
	// Match is the extra identifier carried by the message.
	Match MatchID
	// Seq is the per-channel sequence number of the message.
	Seq uint64
}

// Op identifies a reduction operation for the collective calls.
type Op int

const (
	// OpSum adds elements.
	OpSum Op = iota
	// OpMax keeps the maximum.
	OpMax
	// OpMin keeps the minimum.
	OpMin
	// OpProd multiplies elements.
	OpProd
)

// apply combines two values according to the operation.
func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpProd:
		return a * b
	default:
		return a + b
	}
}

// String names the reduction operation.
func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpProd:
		return "prod"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}
