package mpi

import (
	"fmt"
	"sort"

	bufpkg "repro/internal/buf"
)

// This file contains the recovery-support surface of the runtime: channel
// state snapshot/restore (used by coordinated checkpointing and rollback),
// replay injection (used by the sender-based log replay daemons), sender-side
// channel routing (so a replay daemon can own transmission on a channel and
// preserve per-channel FIFO order during recovery), and channel accessors
// used by the recovery flow control.

// InChannelState is the externally visible per-incoming-channel state.
type InChannelState struct {
	// MaxSeqSeen is the highest sequence number received on the channel
	// (the paper's LR, updated upon reception).
	MaxSeqSeen uint64
	// Delivered is the number of messages delivered to the application.
	Delivered uint64
}

// QueuedMessage is a received-but-undelivered message captured in a channel
// snapshot.
type QueuedMessage struct {
	Env        Envelope
	Payload    []byte
	ArriveTime float64
	Replayed   bool
}

// ChannelSnapshot captures the MPI-level channel state of a process. It is
// part of a process checkpoint: restoring it together with the application
// state brings the process back to a consistent point.
type ChannelSnapshot struct {
	// Out maps outgoing channels to the last assigned sequence number.
	Out map[ChanKey]uint64
	// In maps incoming channels to their bookkeeping.
	In map[ChanKey]InChannelState
	// Queued are the received-but-undelivered messages, in arrival order.
	Queued []QueuedMessage
	// CollSeq is the per-communicator collective-operation counter.
	CollSeq map[int]uint64
	// Clock is the virtual time at snapshot.
	Clock float64
}

// SnapshotChannelsShared captures the channel state of the process without
// copying any payload. The process must not have pending (unfinalized)
// requests: checkpoints are taken at quiescent points (iteration boundaries),
// which the SPBC runtime enforces. The snapshot's Queued payload slices alias
// the runtime's pooled buffers, and the returned references keep that storage
// alive. This is the in-barrier capture path of a checkpoint wave —
// O(metadata) regardless of the queued volume. The caller owns one reference
// per returned buffer and must Release them all (typically via
// Checkpoint.ReleaseShared) once the snapshot has been encoded or discarded.
func (p *Proc) SnapshotChannelsShared() (*ChannelSnapshot, []*bufpkg.Buffer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pending > 0 {
		return nil, nil, ErrPendingRequests
	}
	snap := &ChannelSnapshot{
		Out:     make(map[ChanKey]uint64),
		In:      make(map[ChanKey]InChannelState, len(p.inState)),
		CollSeq: make(map[int]uint64, len(p.collSeq)),
		Clock:   p.clock.Now(),
	}
	for k, st := range p.inState {
		snap.In[k] = InChannelState{MaxSeqSeen: st.maxSeqSeen, Delivered: st.delivered}
	}
	// Reconstruct global arrival order across the indexed unexpected queues
	// from the arrival stamps.
	queued := make([]*inMessage, 0, p.unexpN)
	for _, q := range p.unexp.rings {
		queued = append(queued, q.items[q.head:]...)
	}
	sort.Slice(queued, func(i, j int) bool { return queued[i].arrival < queued[j].arrival })
	var refs []*bufpkg.Buffer
	if len(queued) > 0 {
		refs = make([]*bufpkg.Buffer, 0, len(queued))
	}
	for _, msg := range queued {
		refs = append(refs, msg.payload.Retain())
		snap.Queued = append(snap.Queued, QueuedMessage{
			Env:        msg.env,
			Payload:    msg.payload.Bytes(),
			ArriveTime: msg.arriveTime,
			Replayed:   msg.replayed,
		})
	}
	for c, s := range p.collSeq {
		snap.CollSeq[c] = s
	}
	p.outMu.Lock()
	for k, st := range p.out {
		st.mu.Lock()
		snap.Out[k] = st.seq
		st.mu.Unlock()
	}
	p.outMu.Unlock()
	return snap, refs, nil
}

// RestoreChannels restores the channel state captured by
// SnapshotChannelsShared. keepQueued selects which captured queued messages
// to restore (SPBC restores all of them; a caller may filter). The
// posted-receive queue and the unexpected queue are reset; the outgoing
// sequence counters, incoming bookkeeping, collective counters and virtual
// clock are restored.
//
// Channels that exist now but did not exist at snapshot time are reset to
// zero so that re-execution reassigns the same sequence numbers.
func (p *Proc) RestoreChannels(snap *ChannelSnapshot, keepQueued func(QueuedMessage) bool) {
	if keepQueued == nil {
		keepQueued = func(QueuedMessage) bool { return true }
	}
	p.mu.Lock()
	p.posted.clear(nil)
	p.pending = 0
	p.dropUnexpectedLocked()
	// Chaos-held messages are dropped, not restored: everything in the buffer
	// was sent before the rollback, so it is either replayed from a sender log
	// (inter-cluster) or re-sent by the co-rolled-back sender with the same
	// sequence number (intra-cluster / coordinated). Flushing it after the
	// restore instead could overtake the replay and trip the duplicate filter.
	for _, m := range p.held {
		releaseMsg(m)
	}
	p.held = nil
	p.inState = make(map[ChanKey]*inChannelState, len(snap.In))
	for k, st := range snap.In {
		p.inState[k] = &inChannelState{maxSeqSeen: st.MaxSeqSeen, delivered: st.Delivered}
	}
	for _, q := range snap.Queued {
		if !keepQueued(q) {
			continue
		}
		msg := newMsg()
		msg.env = q.Env
		msg.payload = bufpkg.Copy(q.Payload)
		msg.arriveTime = q.ArriveTime
		msg.eager = true
		msg.replayed = q.Replayed
		p.arrivals++
		msg.arrival = p.arrivals
		p.pushUnexpectedLocked(msg)
	}
	p.collSeq = make(map[int]uint64, len(snap.CollSeq))
	for c, s := range snap.CollSeq {
		p.collSeq[c] = s
	}
	p.notifyLocked()
	p.mu.Unlock()

	p.outMu.Lock()
	for k, st := range p.out {
		st.mu.Lock()
		st.seq = snap.Out[k] // zero if the channel did not exist at snapshot
		st.mu.Unlock()
		_ = k
	}
	p.outMu.Unlock()

	p.clock.Set(snap.Clock)
}

// PurgeChannel removes from the unexpected queue every non-replayed message
// received from the given world source on the given communicator. It is used
// by a recovering process when it learns (from the lastMessage reply) that
// the peer's replay daemon will re-deliver the channel's content in order:
// any directly transmitted stray received in the meantime would otherwise be
// out of order with respect to the replayed messages. Returns the number of
// purged messages.
func (p *Proc) PurgeChannel(srcWorld, commID int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Strays parked in the chaos hold buffer are purged like queued ones (they
	// are counted separately: unexpN tracks only the indexed queues).
	heldPurged := 0
	keptHeld := p.held[:0]
	for _, m := range p.held {
		if m.env.Source == srcWorld && m.env.CommID == commID && !m.replayed {
			heldPurged++
			releaseMsg(m)
			continue
		}
		keptHeld = append(keptHeld, m)
	}
	p.held = keptHeld
	purged := 0
	for k, q := range p.unexp.rings {
		if k.source != srcWorld || k.comm != commID {
			continue
		}
		live := q.items[q.head:]
		kept := q.items[:0]
		for _, msg := range live {
			if !msg.replayed {
				purged++
				releaseMsg(msg)
				continue
			}
			kept = append(kept, msg)
		}
		for i := len(kept); i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = kept
		q.head = 0
		p.unexp.retireIfEmpty(k, q)
	}
	p.unexpN -= purged
	return purged + heldPurged
}

// InState returns the incoming-channel bookkeeping for (src world rank, comm).
func (p *Proc) InState(srcWorld, commID int) InChannelState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.inState[ChanKey{Peer: srcWorld, Comm: commID}]
	if !ok {
		return InChannelState{}
	}
	return InChannelState{MaxSeqSeen: st.maxSeqSeen, Delivered: st.delivered}
}

// InChannels returns the keys of all incoming channels seen so far.
func (p *Proc) InChannels() []ChanKey {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]ChanKey, 0, len(p.inState))
	for k := range p.inState {
		keys = append(keys, k)
	}
	return keys
}

// OutChannels returns the keys of all outgoing channels used so far.
func (p *Proc) OutChannels() []ChanKey {
	p.outMu.Lock()
	defer p.outMu.Unlock()
	keys := make([]ChanKey, 0, len(p.out))
	for k := range p.out {
		keys = append(keys, k)
	}
	return keys
}

// OutSeq returns the last sequence number assigned on the outgoing channel to
// the given world rank and communicator.
func (p *Proc) OutSeq(dstWorld, commID int) uint64 {
	st := p.outChannel(dstWorld, commID)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.seq
}

// SetRouted marks or unmarks the outgoing channel to dstWorld/commID as owned
// by a replay daemon. While routed, application sends on the channel are
// logged (through the protocol) but not transmitted by the application
// thread; the daemon transmits them from the log in sequence order.
func (p *Proc) SetRouted(dstWorld, commID int, routed bool) {
	st := p.outChannel(dstWorld, commID)
	st.mu.Lock()
	st.routed = routed
	st.mu.Unlock()
}

// Routed reports whether the outgoing channel is currently routed through a
// replay daemon, together with the last assigned sequence number.
func (p *Proc) Routed(dstWorld, commID int) (bool, uint64) {
	st := p.outChannel(dstWorld, commID)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.routed, st.seq
}

// WaitDelivered blocks until the process has delivered at least minDelivered
// messages on the incoming channel from srcWorld/commID, or the world stops.
// It is used by replay daemons to implement the recovery flow control
// (Section 5.2.2: a bounded number of replayed messages are pre-posted ahead
// of the recovering process's consumption).
func (p *Proc) WaitDelivered(srcWorld, commID int, minDelivered uint64) {
	key := ChanKey{Peer: srcWorld, Comm: commID}
	// Replay daemons are not the rank's own goroutine, so they park on a
	// pooled parker instead of p.ownPark (several daemons may block on the
	// same Proc concurrently with its own fiber).
	pk := getParker()
	defer putParker(pk)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		st, ok := p.inState[key]
		if ok && st.delivered >= minDelivered {
			return
		}
		if p.world.Stopped() {
			return
		}
		if senders, flushed := p.flushHeldLocked(); flushed {
			p.mu.Unlock()
			completeSenders(senders)
			p.mu.Lock()
			continue
		}
		p.sleepLocked(pk)
	}
}

// InjectReplay delivers a message on behalf of a replay daemon. The message
// becomes available to the destination at availTime (virtual time); it is
// marked as replayed so that the destination's purge logic and duplicate
// suppression can distinguish it from directly transmitted messages.
func (w *World) InjectReplay(env Envelope, payload []byte, availTime float64) error {
	if env.Dest < 0 || env.Dest >= w.size {
		return fmt.Errorf("mpi: replay destination %d out of range", env.Dest)
	}
	dst := w.procs[env.Dest]
	msg := newMsg()
	msg.env = env
	msg.payload = bufpkg.Copy(payload)
	msg.arriveTime = availTime
	msg.eager = true
	msg.replayed = true
	dst.deliverMessage(msg)
	return nil
}
