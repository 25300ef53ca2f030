package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/buf"
	"repro/internal/logstore"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// SPBC is the per-rank runtime state of the paper's modified-MPICH layer. It
// implements mpi.Protocol: identifier stamping and matching, sender-based
// logging of the messages that cross a recovery-group boundary, and send
// suppression during recovery re-execution.
//
// The runtime layer is shared by every Policy: with clusters
// (NewSPBCProtocol) it logs inter-cluster messages (the hybrid of the paper),
// with singleton groups (NewFullLogProtocol) it degenerates to classic full
// sender-based logging, and with one global group (NewCoordinatedProtocol) it
// logs nothing and only the identifier machinery remains active (harmless
// for deterministic SPMD codes). Delivery needs no hook: with
// channel-deterministic applications and identifier matching, SPBC logs no
// determinants (Section 4.1).
//
// All methods are called from the owning rank's goroutine (the mpi.Protocol
// contract), so the pattern and cutoff state needs no locking; the log store
// has its own synchronization because the recovery leader's injectReplays
// reads it and the committer's log GC truncates it concurrently.
//
// The runtime holds the engine's EpochView of the active epoch: per-send
// logging decisions are a slice lookup, and an epoch switch installs the
// next view from the rank's own goroutine at the wave boundary that opens
// the epoch.
type SPBC struct {
	rank int
	view *EpochView
	cost simnet.CostModel
	log  *logstore.Store

	// profile, when non-nil, receives the application's point-to-point
	// traffic (world communicator, application tag range) for adaptive
	// repartitioning. The filter matters: protocol traffic — checkpoint
	// barriers, collectives on the world communicator — would otherwise
	// feed back into the very decisions that generate it.
	profile *liveProfile

	// Pattern API state (Section 5.1): the active identifier and the next
	// iteration number of every declared pattern.
	nextPattern uint32
	iterations  map[uint32]uint32
	current     mpi.MatchID

	// cutoffs is non-nil while the rank is recovering. It maps outgoing
	// inter-group channels to the highest sequence number the destination
	// held when a recovery last touched the channel: a re-send at or below
	// it must not be transmitted again (Algorithm 1 line 7).
	cutoffs map[mpi.ChanKey]uint64
}

// NewSPBC creates the runtime state for one rank under the policy's
// partition; log receives the payloads of the inter-group messages. It
// panics on a partition that fails validation — benchmarks and tests
// construct runtimes directly from known-good policies; the engine builds
// views itself and uses newSPBCWithView.
func NewSPBC(rank int, pol *Policy, cost simnet.CostModel, log *logstore.Store) *SPBC {
	view, err := NewEpochView(0, pol.groupOf)
	if err != nil {
		panic(err)
	}
	return newSPBCWithView(rank, view, cost, log)
}

// newSPBCWithView creates the runtime state for one rank from a validated
// epoch view.
func newSPBCWithView(rank int, view *EpochView, cost simnet.CostModel, log *logstore.Store) *SPBC {
	return &SPBC{
		rank:       rank,
		view:       view,
		cost:       cost,
		log:        log,
		iterations: make(map[uint32]uint32),
	}
}

// Log returns the sender-based log store of the rank.
func (s *SPBC) Log() *logstore.Store { return s.log }

// View returns the epoch view the runtime currently logs under.
func (s *SPBC) View() *EpochView { return s.view }

// setView installs the view of a newly opened epoch. Called from the owning
// rank's goroutine at the wave boundary that opens the epoch, like every
// other mutation of the runtime state.
func (s *SPBC) setView(v *EpochView) { s.view = v }

// setProfile attaches the live communication profile of adaptive clustering.
// Called once at engine construction, before the rank runs.
func (s *SPBC) setProfile(p *liveProfile) { s.profile = p }

// DeclarePattern allocates a new communication-pattern identifier. SPMD
// applications declare patterns in the same order on every rank, so the
// per-rank counters stay aligned across the world.
func (s *SPBC) DeclarePattern() uint32 {
	s.nextPattern++
	return s.nextPattern
}

// BeginIteration makes the pattern active and advances its iteration number;
// subsequent sends and reception requests are stamped with (pattern, iter).
func (s *SPBC) BeginIteration(pattern uint32) {
	if pattern == 0 {
		return
	}
	s.iterations[pattern]++
	s.current = mpi.MatchID{Pattern: pattern, Iteration: s.iterations[pattern]}
}

// EndIteration restores the default communication pattern.
func (s *SPBC) EndIteration(pattern uint32) {
	if s.current.Pattern == pattern {
		s.current = mpi.MatchID{}
	}
}

// StampSend stamps an outgoing message with the active identifier.
func (s *SPBC) StampSend(p *mpi.Proc, env *mpi.Envelope) { env.Match = s.current }

// StampRecv stamps a reception request with the active identifier.
func (s *SPBC) StampRecv(p *mpi.Proc, env *mpi.Envelope) { env.Match = s.current }

// ExtraMatch implements identifier matching (Section 5.2.1): a reception
// request only matches a message carrying the same (pattern, iteration)
// identifier. Both default to the zero identifier outside pattern sections,
// so unbracketed communication behaves exactly as native MPI.
func (s *SPBC) ExtraMatch(req, msg mpi.MatchID) bool { return req == msg }

// OnSend logs the payload of the messages the policy selects in the sender's
// memory (charging the memory-copy cost of the cost model, the protocol's
// only failure-free overhead) and suppresses re-sends during recovery. The
// log retains a reference to the runtime's pooled payload copy instead of
// copying it again: the virtual-time cost model still charges the paper's
// memory-copy cost, but the simulator itself no longer pays a second copy.
func (s *SPBC) OnSend(p *mpi.Proc, env mpi.Envelope, payload *buf.Buffer) (transmit bool, cost float64) {
	// The live profile counts each application message once: recovery
	// re-execution (cutoffs installed) re-sends traffic that was already
	// counted before the rollback, so it is skipped — the fault run's epoch
	// trajectory stays identical to its failure-free twin's.
	if s.profile != nil && s.cutoffs == nil && env.CommID == 0 && env.Tag <= mpi.MaxAppTag {
		s.profile.add(s.rank, env.Dest, uint64(payload.Len()))
	}
	if s.view.Logs(env.Source, env.Dest) {
		s.log.AppendShared(env, payload, p.Now())
		cost = s.cost.LogCost(payload.Len())
	}
	if cut, ok := s.cutoffs[env.OutChannel()]; ok && env.Seq <= cut {
		return false, cost
	}
	return true, cost
}

// EncodeState serializes the pattern-API state (Section 5.1 counters) for
// inclusion in a checkpoint: a deterministic uvarint stream (next pattern id,
// then the sorted pattern→iteration pairs), encoded in-barrier on every wave
// — hand-rolled so the capture stall stays O(patterns) with no reflection.
// It is restored on rollback: re-executed communication must be stamped with
// the same (pattern, iteration) identifiers the logged messages carry, or
// identifier matching would reject every replay.
func (s *SPBC) EncodeState() ([]byte, error) {
	patterns := make([]uint32, 0, len(s.iterations))
	for p := range s.iterations {
		patterns = append(patterns, p)
	}
	slices.Sort(patterns)
	out := make([]byte, 0, (2+2*len(patterns))*binary.MaxVarintLen32)
	out = binary.AppendUvarint(out, uint64(s.nextPattern))
	out = binary.AppendUvarint(out, uint64(len(patterns)))
	for _, p := range patterns {
		out = binary.AppendUvarint(out, uint64(p))
		out = binary.AppendUvarint(out, uint64(s.iterations[p]))
	}
	return out, nil
}

// RestoreState restores the pattern-API state saved by EncodeState.
func (s *SPBC) RestoreState(raw []byte) error {
	fail := fmt.Errorf("core: decode protocol state: truncated or invalid")
	next, n := binary.Uvarint(raw)
	if n <= 0 {
		return fail
	}
	raw = raw[n:]
	count, n := binary.Uvarint(raw)
	if n <= 0 || count > uint64(len(raw)) {
		return fail
	}
	raw = raw[n:]
	iterations := make(map[uint32]uint32, count)
	for i := uint64(0); i < count; i++ {
		p, n := binary.Uvarint(raw)
		if n <= 0 {
			return fail
		}
		raw = raw[n:]
		it, n := binary.Uvarint(raw)
		if n <= 0 {
			return fail
		}
		raw = raw[n:]
		iterations[uint32(p)] = uint32(it)
	}
	if len(raw) != 0 {
		return fail
	}
	s.nextPattern = uint32(next)
	s.iterations = iterations
	s.current = mpi.MatchID{}
	return nil
}

// beginRecovery installs the suppression cutoffs one recovery event assigns
// to the rank's outgoing channels, each the destination's seen sequence
// number. A rank the event rolled back starts from an empty map; a rank still
// re-executing an earlier recovery overwrites the channels the event touched,
// because their destinations' seen numbers are what holds now; any other
// rank is not recovering and suppresses nothing. Called from the rank's own
// goroutine.
func (s *SPBC) beginRecovery(rolledBack bool, chans []recoveryChan) {
	if rolledBack {
		s.cutoffs = make(map[mpi.ChanKey]uint64, len(chans))
	}
	if s.cutoffs == nil {
		return
	}
	for _, c := range chans {
		s.cutoffs[mpi.ChanKey{Peer: c.dst, Comm: c.comm}] = c.seen
	}
}

// endRecovery clears the suppression cutoffs once the rank has re-executed
// past the failure point and rejoined the failure-free execution.
func (s *SPBC) endRecovery() { s.cutoffs = nil }

var _ mpi.Protocol = (*SPBC)(nil)
