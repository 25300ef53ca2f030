package mpi

import "repro/internal/buf"

// Protocol is the interposition interface used by checkpointing protocols
// (SPBC, HydEE) to hook into the runtime, mirroring what the paper implements
// inside MPICH (Section 5.2). A Protocol instance is attached per process; the
// runtime calls it from the owning rank's goroutine unless stated otherwise.
//
// The default protocol (NopProtocol) corresponds to the unmodified MPICH
// baseline: no identifiers, no logging, everything transmitted.
type Protocol interface {
	// StampSend sets the extra identifier of an outgoing message. It is
	// called before OnSend, after the per-channel sequence number has been
	// assigned.
	StampSend(p *Proc, env *Envelope)

	// StampRecv sets the extra identifier of a reception request or probe.
	// env.Source is the requested world source (or AnySource), env.Tag the
	// requested tag (or AnyTag).
	StampRecv(p *Proc, env *Envelope)

	// OnSend is called for every outgoing message after sequence-number
	// assignment and stamping. The payload is the runtime's pooled copy of
	// the application buffer (the single sender-side copy of the zero-copy
	// fabric): a protocol that retains it beyond the call — sender-based
	// logging — must Retain it (logstore.AppendShared does) rather than
	// copy it. It returns whether the message should be transmitted now
	// (false is used to suppress re-sends during recovery, Algorithm 1
	// line 7) and the extra virtual-time cost incurred at the sender
	// (payload logging).
	OnSend(p *Proc, env Envelope, payload *buf.Buffer) (transmit bool, cost float64)

	// ExtraMatch reports whether a reception request with identifier req may
	// be matched with a message carrying identifier msg, in addition to the
	// standard source/tag/communicator rules (Section 5.2.1).
	ExtraMatch(req, msg MatchID) bool
}

// NopProtocol is the default protocol: native MPI behaviour, no logging, no
// identifier matching.
type NopProtocol struct{}

// StampSend leaves the identifier at its zero value.
func (NopProtocol) StampSend(*Proc, *Envelope) {}

// StampRecv leaves the identifier at its zero value.
func (NopProtocol) StampRecv(*Proc, *Envelope) {}

// OnSend transmits everything at no extra cost.
func (NopProtocol) OnSend(*Proc, Envelope, *buf.Buffer) (bool, float64) { return true, 0 }

// ExtraMatch ignores identifiers, as unmodified MPICH does.
func (NopProtocol) ExtraMatch(MatchID, MatchID) bool { return true }

var _ Protocol = NopProtocol{}
