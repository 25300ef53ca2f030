package mpi

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	bufpkg "repro/internal/buf"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// inMessage is a message held by the destination process, either matched to a
// request or sitting in the unexpected-message queue. Instances are recycled
// through msgPool: the runtime releases a message (and the references it
// holds) when it is consumed by a receive, dropped as a duplicate, purged, or
// discarded by a channel restore.
type inMessage struct {
	env        Envelope
	payload    *bufpkg.Buffer // one reference owned by the message
	arriveTime float64        // eager: full payload available; rendezvous: header available
	arrival    uint64         // stamp ordering entries across unexpected queues
	eager      bool
	sendReq    *Request // rendezvous: sender's request, completed when the transfer finishes
	replayed   bool     // injected by a recovery replay daemon
}

// msgPool recycles inMessage headers so the steady-state eager path performs
// no per-message allocation.
var msgPool = sync.Pool{New: func() any { return new(inMessage) }}

// newMsg returns a zeroed message header.
func newMsg() *inMessage { return msgPool.Get().(*inMessage) }

// releaseMsg returns the message's payload reference and recycles the
// header. The caller must hold the only reference to the header.
func releaseMsg(m *inMessage) {
	if m.payload != nil {
		m.payload.Release()
	}
	*m = inMessage{}
	msgPool.Put(m)
}

// inChannelState is the per-incoming-channel bookkeeping of a process.
type inChannelState struct {
	// maxSeqSeen is the highest sequence number that has arrived on the
	// channel (the paper's cji.LR, updated upon reception). Arrivals with a
	// lower or equal sequence number are duplicates and are dropped.
	maxSeqSeen uint64
	// delivered is the number of messages delivered to the application on
	// this channel; it drives the recovery flow control.
	delivered uint64
}

// outChannelState is the per-outgoing-channel bookkeeping of a process.
type outChannelState struct {
	mu  sync.Mutex
	seq uint64
	// routed is true while a replay daemon owns transmission on this
	// channel: the application's sends are logged but not transmitted here
	// (the daemon transmits them from the log, preserving channel order).
	routed bool
}

// ProcStats accumulates per-rank statistics used by the evaluation harness.
type ProcStats struct {
	mu         sync.Mutex
	CompTime   float64
	CommTime   float64
	Sends      uint64
	Recvs      uint64
	BytesSent  uint64
	BytesRecv  uint64
	BytesToDst map[int]uint64
	Suppressed uint64 // sends skipped during recovery
}

// snapshotBytesToDst returns a copy of the per-destination byte counters.
func (s *ProcStats) snapshotBytesToDst() map[int]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]uint64, len(s.BytesToDst))
	for k, v := range s.BytesToDst {
		out[k] = v
	}
	return out
}

// PerDestinationBytes returns a copy of the per-destination byte counters,
// used to build communication profiles for the clustering partitioner.
func (s *ProcStats) PerDestinationBytes() map[int]uint64 {
	return s.snapshotBytesToDst()
}

// Snapshot returns a copy of the statistics.
func (s *ProcStats) Snapshot() ProcStatsView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ProcStatsView{
		CompTime:   s.CompTime,
		CommTime:   s.CommTime,
		Sends:      s.Sends,
		Recvs:      s.Recvs,
		BytesSent:  s.BytesSent,
		BytesRecv:  s.BytesRecv,
		Suppressed: s.Suppressed,
	}
}

// ProcStatsView is an immutable copy of ProcStats counters.
type ProcStatsView struct {
	CompTime   float64
	CommTime   float64
	Sends      uint64
	Recvs      uint64
	BytesSent  uint64
	BytesRecv  uint64
	Suppressed uint64
}

// Proc is the per-rank handle used by application code. All communication
// methods (Isend/Irecv/Send/Recv/Iprobe/Probe, the collectives, and the
// Wait/Test family) must be called from the rank's own goroutine (the one
// started by World.Run): beyond the virtual clock, they share per-rank
// scratch state (the stamping envelope, the collective scratch, the request
// free list) that is deliberately unsynchronized. Protocol daemons interact with a Proc only
// through the explicitly concurrent-safe methods (InjectReplay, SetRouted,
// channel accessors, snapshot/restore helpers). A traced Proc records its
// sends and delivers without any vector clock: the trace package derives
// clocks from the recorded program orders when they are analysed.
type Proc struct {
	world    *World
	id       int
	clock    simnet.Clock
	protocol Protocol

	Stats ProcStats

	mu sync.Mutex
	// waiters are the parked callers blocked on p's state (the rank's own
	// goroutine in Wait/Waitany/Probe, replay daemons in WaitDelivered).
	// A waiter is deregistered at wake time and re-registers itself before
	// sleeping again; see sched.go for the parking protocol.
	waiters []*parker
	// ownPark is the rank goroutine's reusable parker (blocking waits are
	// rank-goroutine-only by contract, so one is always enough).
	ownPark parker
	// wakeQueued coalesces shard-mailbox wakeups: set while the rank is
	// sitting in its shard's queue, cleared by the shard loop before the
	// waiter hand-off.
	wakeQueued atomic.Bool
	// unexp indexes received-but-unmatched messages by their concrete
	// (source, comm, tag); arrivals stamps them so wildcard receives can
	// recover global arrival order across queues.
	unexp    matchIndex[*inMessage]
	unexpN   int
	arrivals uint64
	// posted indexes outstanding reception requests by their requested
	// (source, comm, tag), wildcards included; postStamp orders them.
	posted    matchIndex[*Request]
	postStamp uint64
	inState   map[ChanKey]*inChannelState
	pending   int // incomplete requests
	// held buffers arriving messages under a network-chaos hold rule, in
	// arrival order (which per channel is sequence order). A flush delivers
	// them in a seeded inter-channel order; blocked receivers flush before
	// sleeping so holds never affect liveness. Always empty without NetChaos.
	held []*inMessage

	outMu sync.Mutex
	out   map[ChanKey]*outChannelState

	collSeq map[int]uint64 // per-communicator collective sequence

	// stampEnv is the scratch envelope handed to the protocol's stamping
	// hooks. Passing a pointer into the Proc instead of a stack local keeps
	// the interface call from forcing a heap allocation per operation; it is
	// only touched from the rank's own goroutine (the stamping contract).
	stampEnv Envelope

	// coll is the collectives' working storage, allocated by the rank's
	// first collective (see collScratch). Keeping it out of line keeps the
	// Proc, which NewWorld allocates per rank, in its smaller size class.
	coll *collScratch
	// freeReqs is the top of a stack, linked through Request.next, of
	// recycled collective-fragment requests: they are never handed to the
	// caller, so after a successful Wait nothing references them. Only the
	// rank's own goroutine touches it.
	freeReqs *Request
}

func newProc(w *World, id int) *Proc {
	p := &Proc{
		world:    w,
		id:       id,
		protocol: NopProtocol{},
		unexp:    newMatchIndex[*inMessage](),
		posted:   newMatchIndex[*Request](),
		inState:  make(map[ChanKey]*inChannelState),
		out:      make(map[ChanKey]*outChannelState),
		collSeq:  make(map[int]uint64),
	}
	p.ownPark.ch = make(chan struct{}, 1)
	p.Stats.BytesToDst = make(map[int]uint64)
	return p
}

// Rank returns the world rank of the process.
func (p *Proc) Rank() int { return p.id }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.size }

// World returns the world the process belongs to.
func (p *Proc) World() *World { return p.world }

// SetProtocol attaches a checkpointing protocol to the process. It must be
// called before any communication.
func (p *Proc) SetProtocol(proto Protocol) {
	if proto == nil {
		proto = NopProtocol{}
	}
	p.protocol = proto
}

// Protocol returns the attached protocol.
func (p *Proc) Protocol() Protocol { return p.protocol }

// Now returns the process's current virtual time.
func (p *Proc) Now() float64 { return p.clock.Now() }

// SetClock forces the virtual clock (used when rolling back to a checkpoint).
func (p *Proc) SetClock(t float64) { p.clock.Set(t) }

// Compute advances the virtual clock by the given computation time (seconds)
// and accounts it as computation in the statistics.
func (p *Proc) Compute(seconds float64) {
	if seconds <= 0 {
		return
	}
	p.clock.Advance(seconds)
	p.Stats.mu.Lock()
	p.Stats.CompTime += seconds
	p.Stats.mu.Unlock()
}

// outChannel returns the outgoing channel state for (dst world rank, comm).
func (p *Proc) outChannel(dstWorld, commID int) *outChannelState {
	key := ChanKey{Peer: dstWorld, Comm: commID}
	p.outMu.Lock()
	defer p.outMu.Unlock()
	st, ok := p.out[key]
	if !ok {
		st = &outChannelState{}
		p.out[key] = st
	}
	return st
}

// inChannel returns the incoming channel state for (src world rank, comm).
// Caller must hold p.mu.
func (p *Proc) inChannelLocked(srcWorld, commID int) *inChannelState {
	key := ChanKey{Peer: srcWorld, Comm: commID}
	st, ok := p.inState[key]
	if !ok {
		st = &inChannelState{}
		p.inState[key] = st
	}
	return st
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

// Isend starts a non-blocking send of buf to the comm-relative rank dest with
// the given tag. The buffer is copied immediately, so the caller may reuse it.
func (p *Proc) Isend(buf []byte, dest, tag int, comm *Comm) (*Request, error) {
	if comm == nil {
		comm = p.world.worldComm
	}
	dstWorld := comm.WorldRank(dest)
	if dstWorld < 0 {
		return nil, fmt.Errorf("mpi: rank %d: invalid destination %d in communicator %d (size %d)",
			p.id, dest, comm.id, comm.Size())
	}
	if tag < 0 || tag > MaxAppTag {
		return nil, fmt.Errorf("mpi: rank %d: invalid tag %d", p.id, tag)
	}
	return p.isend(buf, dstWorld, tag, comm)
}

// isend is the internal send path; tag may be in the collective range. The
// user buffer is copied exactly once, into a pooled refcounted buffer that is
// then shared by the in-flight message and (through the protocol's OnSend
// hook) the sender-based log record.
func (p *Proc) isend(buf []byte, dstWorld, tag int, comm *Comm) (*Request, error) {
	if p.world.Stopped() {
		return nil, ErrWorldStopped
	}
	cost := p.world.cost

	out := p.outChannel(dstWorld, comm.id)
	out.mu.Lock()
	out.seq++
	seq := out.seq
	routed := out.routed
	out.mu.Unlock()

	p.stampEnv = Envelope{
		Source: p.id,
		Dest:   dstWorld,
		CommID: comm.id,
		Tag:    tag,
		Seq:    seq,
		Bytes:  len(buf),
	}
	p.protocol.StampSend(p, &p.stampEnv)
	env := p.stampEnv

	p.clock.Advance(cost.SendOverhead)

	// The single payload copy: the protocol retains it if it logs the
	// message, and the message carries it to the receiver.
	pb := bufpkg.Copy(buf)
	transmit, extra := p.protocol.OnSend(p, env, pb)
	p.clock.Advance(extra)

	req := p.newRequest()
	req.kind = reqSend
	req.comm = comm
	p.mu.Lock()
	p.pending++
	p.mu.Unlock()

	now := p.clock.Now()

	// Statistics and trace are recorded for the logical send regardless of
	// whether the bytes are physically transmitted here (a suppressed or
	// routed send is still a send of the application).
	p.Stats.mu.Lock()
	p.Stats.Sends++
	p.Stats.BytesSent += uint64(len(buf))
	p.Stats.BytesToDst[dstWorld] += uint64(len(buf))
	if !transmit {
		p.Stats.Suppressed++
	}
	p.Stats.mu.Unlock()

	if p.world.rec != nil {
		p.world.rec.Record(trace.Event{
			Kind:    trace.EventSend,
			Rank:    p.id,
			Channel: trace.ChannelKey{Src: p.id, Dst: dstWorld, Comm: comm.id},
			Seq:     seq,
			Tag:     tag,
			Bytes:   len(buf),
			Time:    now,
			Digest:  trace.Digest(buf),
		})
	}

	if !transmit || routed {
		// Suppressed (recovery re-execution, Algorithm 1 line 7) or routed
		// through a replay daemon: the send request completes locally. The
		// log holds its own reference if the message was logged.
		pb.Release()
		p.mu.Lock()
		p.completeLocked(req, now, Status{})
		p.mu.Unlock()
		return req, nil
	}

	eager := cost.IsEager(len(buf))
	msg := newMsg()
	msg.env = env
	msg.payload = pb
	msg.eager = eager
	if eager {
		msg.arriveTime = cost.EagerArrival(now, p.id, dstWorld, len(buf))
		// Eager send completes locally as soon as the data has left the
		// sender's buffer.
		p.mu.Lock()
		p.completeLocked(req, now, Status{})
		p.mu.Unlock()
	} else {
		msg.arriveTime = cost.HeaderArrival(now, p.id, dstWorld)
		msg.sendReq = req
	}
	if nc := p.world.net; nc != nil {
		// Network chaos: delays, reorder windows and partitions all surface as
		// a pure virtual-time shift of the arrival. Matching order per channel
		// is the delivery call order, which this does not change, so FIFO is
		// preserved no matter how adversarial the shift.
		msg.arriveTime += nc.ExtraDelay(now, p.id, dstWorld, comm.id, seq)
	}

	dst := p.world.procs[dstWorld]
	dst.deliverMessage(msg)
	return req, nil
}

// Send is the blocking send: Isend followed by Wait.
func (p *Proc) Send(buf []byte, dest, tag int, comm *Comm) error {
	req, err := p.Isend(buf, dest, tag, comm)
	if err != nil {
		return err
	}
	_, err = p.Wait(req)
	return err
}

// ---------------------------------------------------------------------------
// Arrival and matching
// ---------------------------------------------------------------------------

// heldSender is a rendezvous sender completion deferred until after p.mu is
// released, to keep the lock order acyclic.
type heldSender struct {
	req *Request
	t   float64
}

func completeSenders(senders []heldSender) {
	for _, s := range senders {
		s.req.proc.completeExternal(s.req, s.t)
	}
}

// deliverMessage places a message arriving on one of p's incoming channels.
// It is called from the sender's goroutine or from a replay daemon. Any
// rendezvous sender request that becomes complete is completed after p's lock
// is released to keep the lock order acyclic. Under a network-chaos hold rule
// the message is parked in the hold buffer instead; replayed messages bypass
// holding (recovery replay owns its own ordering).
func (p *Proc) deliverMessage(msg *inMessage) {
	var senders []heldSender

	hold := 0
	if nc := p.world.net; nc != nil && !msg.replayed {
		hold = nc.HoldWindow(msg.arriveTime, msg.env.Source, p.id)
	}
	p.mu.Lock()
	if hold > 0 || p.heldOnChannelLocked(msg.env.Source, msg.env.CommID) {
		// A message also joins the buffer whenever its channel already has a
		// held message, whatever its own rule match: per-channel FIFO through
		// the buffer is absolute.
		p.held = append(p.held, msg)
		if hold == 0 || len(p.held) < hold {
			// Not full: park it, but wake blocked receivers so flush-on-block
			// keeps liveness.
			p.notifyLocked()
			p.mu.Unlock()
			return
		}
		senders, _ = p.flushHeldLocked()
	} else if s, ok := p.deliverLocked(msg); ok {
		senders = append(senders, s)
	}
	p.notifyLocked()
	p.mu.Unlock()
	completeSenders(senders)
}

// deliverLocked runs the duplicate filter and matching for one message. The
// returned rendezvous sender completion (if ok) must be performed after p.mu
// is released, and the caller must Broadcast. Caller holds p.mu.
func (p *Proc) deliverLocked(msg *inMessage) (heldSender, bool) {
	st := p.inChannelLocked(msg.env.Source, msg.env.CommID)
	if msg.env.Seq <= st.maxSeqSeen {
		// Duplicate (recovery replay overlapped with a direct transmission):
		// channel-determinism guarantees the payload is identical, drop it.
		releaseMsg(msg)
		return heldSender{}, false
	}
	st.maxSeqSeen = msg.env.Seq

	// Match against the earliest posted matching request, in post order.
	if req := p.matchPostedLocked(msg); req != nil {
		if senderReq, t := p.matchLocked(req, msg); senderReq != nil {
			return heldSender{req: senderReq, t: t}, true
		}
		return heldSender{}, false
	}
	p.arrivals++
	msg.arrival = p.arrivals
	p.pushUnexpectedLocked(msg)
	return heldSender{}, false
}

// heldOnChannelLocked reports whether the hold buffer contains a message of
// the given channel. Caller holds p.mu.
func (p *Proc) heldOnChannelLocked(srcWorld, commID int) bool {
	for _, m := range p.held {
		if m.env.Source == srcWorld && m.env.CommID == commID {
			return true
		}
	}
	return false
}

// flushHeldLocked releases every held message into the normal matching path,
// in a seeded inter-channel order that preserves per-channel FIFO: the seeded
// sort decides which delivery slots each channel occupies, and each channel's
// slots are refilled in sequence order. It reports whether anything was
// flushed; the returned sender completions must be performed after releasing
// p.mu. Caller holds p.mu.
func (p *Proc) flushHeldLocked() ([]heldSender, bool) {
	if len(p.held) == 0 {
		return nil, false
	}
	msgs := p.held
	p.held = nil
	nc := p.world.net

	// Snapshot every channel key before delivering anything: delivery can
	// release a message back to the pool, and the slot-refill indirection
	// below (orig != idx) may deliver a message before its own slot is read —
	// reading msg.env afterwards would race a concurrent sender recycling it.
	order := make([]int, len(msgs))
	keys := make([]uint64, len(msgs))
	chans := make([]ChanKey, len(msgs))
	byChan := make(map[ChanKey][]int) // original indices, in per-channel seq order
	for i, m := range msgs {
		order[i] = i
		chans[i] = ChanKey{Peer: m.env.Source, Comm: m.env.CommID}
		byChan[chans[i]] = append(byChan[chans[i]], i)
		if nc != nil {
			keys[i] = nc.OrderKey(m.env.Source, p.id, m.env.CommID, m.env.Seq)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })

	next := make(map[ChanKey]int)
	var senders []heldSender
	for _, idx := range order {
		k := chans[idx]
		orig := byChan[k][next[k]]
		next[k]++
		if s, ok := p.deliverLocked(msgs[orig]); ok {
			senders = append(senders, s)
		}
	}
	return senders, true
}

// unexpKey is the concrete (source, comm, tag) queue of a message.
func unexpKey(msg *inMessage) matchKey {
	return matchKey{source: msg.env.Source, comm: msg.env.CommID, tag: msg.env.Tag}
}

// pushUnexpectedLocked files a stamped message under its concrete
// (source, comm, tag) queue. Caller holds p.mu.
func (p *Proc) pushUnexpectedLocked(msg *inMessage) {
	p.unexp.push(unexpKey(msg), msg)
	p.unexpN++
}

// dropUnexpectedLocked releases and discards every queued unexpected message.
// Caller holds p.mu.
func (p *Proc) dropUnexpectedLocked() {
	p.unexp.clear(releaseMsg)
	p.unexpN = 0
}

// matchPostedLocked finds — and removes from its queue — the earliest posted
// request that matches msg, considering the four (source, tag) wildcard
// combinations the message can match. Caller holds p.mu.
func (p *Proc) matchPostedLocked(msg *inMessage) *Request {
	keys := [4]matchKey{
		{msg.env.Source, msg.env.CommID, msg.env.Tag},
		{msg.env.Source, msg.env.CommID, AnyTag},
		{AnySource, msg.env.CommID, msg.env.Tag},
		{AnySource, msg.env.CommID, AnyTag},
	}
	var best *Request
	var bestQ *ring[*Request]
	var bestKey matchKey
	bestIdx := -1
	for _, k := range keys {
		q := p.posted.rings[k]
		if q == nil {
			continue
		}
		// First matching request in this queue; queues are in post order, so
		// the stamp-minimal first-match across queues is the globally
		// earliest posted match.
		for i := q.head; i < len(q.items); i++ {
			req := q.items[i]
			if p.canMatchLocked(req, msg) {
				if best == nil || req.stamp < best.stamp {
					best, bestQ, bestKey, bestIdx = req, q, k, i
				}
				break
			}
		}
	}
	if best != nil {
		p.posted.removeAt(bestKey, bestQ, bestIdx)
	}
	return best
}

// scanUnexpectedLocked finds the earliest arrived unexpected message matching
// req, returning its queue and absolute index (or a nil message). The caller
// decides whether to consume it (receive) or only observe it (probe). Caller
// holds p.mu.
func (p *Proc) scanUnexpectedLocked(req *Request) (*inMessage, *ring[*inMessage], int) {
	var best *inMessage
	var bestQ *ring[*inMessage]
	bestIdx := -1
	consider := func(q *ring[*inMessage]) {
		// First matching message in this queue; queues are in arrival order,
		// so the arrival-minimal first-match across queues is the globally
		// earliest arrived match.
		for i := q.head; i < len(q.items); i++ {
			m := q.items[i]
			if p.canMatchLocked(req, m) {
				if best == nil || m.arrival < best.arrival {
					best, bestQ, bestIdx = m, q, i
				}
				return
			}
		}
	}
	if req.wantSource != AnySource && req.wantTag != AnyTag {
		if q := p.unexp.rings[matchKey{req.wantSource, req.comm.id, req.wantTag}]; q != nil {
			consider(q)
		}
		return best, bestQ, bestIdx
	}
	for k, q := range p.unexp.rings {
		if k.comm != req.comm.id {
			continue
		}
		if req.wantSource != AnySource && k.source != req.wantSource {
			continue
		}
		if req.wantTag != AnyTag && k.tag != req.wantTag {
			continue
		}
		consider(q)
	}
	return best, bestQ, bestIdx
}

// canMatchLocked applies the MPI matching rules plus the protocol's extra
// identifier rule. Caller holds p.mu.
func (p *Proc) canMatchLocked(req *Request, msg *inMessage) bool {
	if req.comm.id != msg.env.CommID {
		return false
	}
	if req.wantSource != AnySource && req.wantSource != msg.env.Source {
		return false
	}
	if req.wantTag != AnyTag && req.wantTag != msg.env.Tag {
		return false
	}
	return p.protocol.ExtraMatch(req.match, msg.env.Match)
}

// matchLocked binds msg to req and computes completion times. It returns the
// rendezvous sender request to complete (if any) together with its completion
// time; the caller must complete it after releasing p.mu. Caller holds p.mu.
func (p *Proc) matchLocked(req *Request, msg *inMessage) (*Request, float64) {
	cost := p.world.cost
	req.msg = msg
	st := p.inChannelLocked(msg.env.Source, msg.env.CommID)
	st.delivered++

	matchTime := req.postTime
	if msg.arriveTime > matchTime {
		matchTime = msg.arriveTime
	}
	var completeTime float64
	var senderReq *Request
	if msg.eager {
		completeTime = matchTime + cost.RecvOverhead
	} else {
		completeTime = cost.RendezvousComplete(matchTime, msg.env.Source, p.id, msg.env.Bytes) + cost.RecvOverhead
		senderReq = msg.sendReq
	}
	status := Status{
		Source: req.comm.CommRank(msg.env.Source),
		Tag:    msg.env.Tag,
		Bytes:  msg.env.Bytes,
		Match:  msg.env.Match,
		Seq:    msg.env.Seq,
	}
	p.completeLocked(req, completeTime, status)
	return senderReq, completeTime
}

// completeLocked marks a request owned by p as done. Caller holds p.mu.
func (p *Proc) completeLocked(req *Request, t float64, status Status) {
	if req.done {
		return
	}
	req.done = true
	req.completeTime = t
	req.status = status
	p.notifyLocked()
}

// completeExternal completes a request owned by p from another goroutine.
func (p *Proc) completeExternal(req *Request, t float64) {
	p.mu.Lock()
	p.completeLocked(req, t, Status{})
	p.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

// Irecv posts a non-blocking reception request for a message from the
// comm-relative rank src (or AnySource) with the given tag (or AnyTag). The
// message payload is copied into buf at completion (Wait/Test).
func (p *Proc) Irecv(buf []byte, src, tag int, comm *Comm) (*Request, error) {
	if comm == nil {
		comm = p.world.worldComm
	}
	srcWorld := AnySource
	if src != AnySource {
		srcWorld = comm.WorldRank(src)
		if srcWorld < 0 {
			return nil, fmt.Errorf("mpi: rank %d: invalid source %d in communicator %d (size %d)",
				p.id, src, comm.id, comm.Size())
		}
	}
	if tag != AnyTag && (tag < 0 || tag > MaxAppTag) {
		return nil, fmt.Errorf("mpi: rank %d: invalid tag %d", p.id, tag)
	}
	return p.irecv(buf, srcWorld, tag, comm)
}

// irecv is the internal receive path; tag may be in the collective range.
func (p *Proc) irecv(buf []byte, srcWorld, tag int, comm *Comm) (*Request, error) {
	if p.world.Stopped() {
		return nil, ErrWorldStopped
	}
	req := p.newRequest()
	req.kind = reqRecv
	req.buf = buf
	req.wantSource = srcWorld
	req.wantTag = tag
	req.comm = comm
	req.postTime = p.clock.Now()
	p.stampEnv = Envelope{Source: srcWorld, Dest: p.id, CommID: comm.id, Tag: tag}
	p.protocol.StampRecv(p, &p.stampEnv)
	req.match = p.stampEnv.Match

	var completeSender *Request
	var senderTime float64

	p.mu.Lock()
	p.pending++
	p.postStamp++
	req.stamp = p.postStamp
	// Take the earliest arrived matching unexpected message, if any.
	if msg, q, idx := p.scanUnexpectedLocked(req); msg != nil {
		p.unexp.removeAt(unexpKey(msg), q, idx)
		p.unexpN--
		senderDone, sT := p.matchLocked(req, msg)
		if senderDone != nil {
			completeSender, senderTime = senderDone, sT
		}
	}
	if req.msg == nil {
		p.posted.push(matchKey{source: req.wantSource, comm: comm.id, tag: req.wantTag}, req)
	}
	p.mu.Unlock()

	if completeSender != nil {
		completeSender.proc.completeExternal(completeSender, senderTime)
	}
	return req, nil
}

// Recv is the blocking receive: Irecv followed by Wait.
func (p *Proc) Recv(buf []byte, src, tag int, comm *Comm) (Status, error) {
	req, err := p.Irecv(buf, src, tag, comm)
	if err != nil {
		return Status{}, err
	}
	return p.Wait(req)
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

// Wait blocks until the request completes, finalizes it and returns its
// status (meaningful for receive requests).
func (p *Proc) Wait(req *Request) (Status, error) {
	if req == nil {
		return Status{}, fmt.Errorf("mpi: rank %d: Wait on nil request", p.id)
	}
	if req.proc != p {
		return Status{}, fmt.Errorf("mpi: rank %d: Wait on a request owned by rank %d", p.id, req.proc.id)
	}
	before := p.clock.Now()
	p.mu.Lock()
	for !req.done {
		if p.world.Stopped() {
			p.mu.Unlock()
			return Status{}, ErrWorldStopped
		}
		if senders, flushed := p.flushHeldLocked(); flushed {
			// About to block: release the chaos hold buffer first so held
			// messages cannot deadlock the receiver, then re-check.
			p.mu.Unlock()
			completeSenders(senders)
			p.mu.Lock()
			continue
		}
		p.sleepLocked(&p.ownPark)
	}
	p.mu.Unlock()
	return p.finalize(req, before)
}

// Test checks the request without blocking. If it has completed, the request
// is finalized and ok is true.
func (p *Proc) Test(req *Request) (ok bool, st Status, err error) {
	if req == nil {
		return false, Status{}, fmt.Errorf("mpi: rank %d: Test on nil request", p.id)
	}
	before := p.clock.Now()
	p.mu.Lock()
	done := req.done
	p.mu.Unlock()
	if !done {
		return false, Status{}, nil
	}
	st, err = p.finalize(req, before)
	return true, st, err
}

// Waitall waits for all the given requests and returns their statuses.
func (p *Proc) Waitall(reqs []*Request) ([]Status, error) {
	statuses := make([]Status, len(reqs))
	for i, r := range reqs {
		if r == nil {
			continue
		}
		st, err := p.Wait(r)
		if err != nil {
			return nil, err
		}
		statuses[i] = st
	}
	return statuses, nil
}

// Waitany blocks until at least one of the requests completes, finalizes it
// and returns its index and status. Completed-and-finalized requests are
// skipped; if every request is already finalized, index -1 is returned.
func (p *Proc) Waitany(reqs []*Request) (int, Status, error) {
	before := p.clock.Now()
	for {
		p.mu.Lock()
		allFinalized := true
		idx := -1
		for i, r := range reqs {
			if r == nil || r.finalized {
				continue
			}
			allFinalized = false
			if r.done {
				idx = i
				break
			}
		}
		if allFinalized {
			p.mu.Unlock()
			return -1, Status{}, nil
		}
		if idx >= 0 {
			p.mu.Unlock()
			st, err := p.finalize(reqs[idx], before)
			return idx, st, err
		}
		if p.world.Stopped() {
			p.mu.Unlock()
			return -1, Status{}, ErrWorldStopped
		}
		if senders, flushed := p.flushHeldLocked(); flushed {
			p.mu.Unlock()
			completeSenders(senders)
			continue
		}
		p.sleepLocked(&p.ownPark)
		p.mu.Unlock()
	}
}

// Testall reports whether all requests have completed; if so, they are all
// finalized.
func (p *Proc) Testall(reqs []*Request) (bool, error) {
	p.mu.Lock()
	for _, r := range reqs {
		if r != nil && !r.done {
			p.mu.Unlock()
			return false, nil
		}
	}
	p.mu.Unlock()
	before := p.clock.Now()
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := p.finalize(r, before); err != nil {
			return false, err
		}
	}
	return true, nil
}

// finalize applies the effects of a completed request: clock advance,
// statistics, payload copy, protocol delivery callback and trace event. For a
// receive it consumes the matched message: the payload reference and the
// message header are both recycled here.
func (p *Proc) finalize(req *Request, waitStart float64) (Status, error) {
	p.mu.Lock()
	if req.finalized {
		st := req.status
		p.mu.Unlock()
		return st, nil
	}
	req.finalized = true
	if p.pending > 0 {
		p.pending--
	}
	msg := req.msg
	req.msg = nil
	st := req.status
	completeTime := req.completeTime
	p.mu.Unlock()

	p.clock.AdvanceTo(completeTime)
	waited := p.clock.Now() - waitStart
	if waited > 0 {
		p.Stats.mu.Lock()
		p.Stats.CommTime += waited
		p.Stats.mu.Unlock()
	}

	if req.kind == reqRecv && msg != nil {
		copy(req.buf, msg.payload.Bytes())
		p.Stats.mu.Lock()
		p.Stats.Recvs++
		p.Stats.BytesRecv += uint64(msg.env.Bytes)
		p.Stats.mu.Unlock()
		p.protocol.OnDeliver(p, msg.env)
		if p.world.rec != nil {
			p.world.rec.Record(trace.Event{
				Kind:    trace.EventDeliver,
				Rank:    p.id,
				Channel: trace.ChannelKey{Src: msg.env.Source, Dst: p.id, Comm: msg.env.CommID},
				Seq:     msg.env.Seq,
				Tag:     msg.env.Tag,
				Bytes:   msg.env.Bytes,
				Time:    p.clock.Now(),
				Digest:  trace.Digest(msg.payload.Bytes()),
			})
		}
		releaseMsg(msg)
	}
	return st, nil
}

// ---------------------------------------------------------------------------
// Probing
// ---------------------------------------------------------------------------

// Iprobe checks, without receiving, whether a message matching (src, tag,
// comm) is available. src may be AnySource and tag AnyTag.
func (p *Proc) Iprobe(src, tag int, comm *Comm) (bool, Status, error) {
	if comm == nil {
		comm = p.world.worldComm
	}
	srcWorld := AnySource
	if src != AnySource {
		srcWorld = comm.WorldRank(src)
		if srcWorld < 0 {
			return false, Status{}, fmt.Errorf("mpi: rank %d: invalid probe source %d", p.id, src)
		}
	}
	probe := &Request{
		proc:       p,
		kind:       reqRecv,
		wantSource: srcWorld,
		wantTag:    tag,
		comm:       comm,
	}
	p.stampEnv = Envelope{Source: srcWorld, Dest: p.id, CommID: comm.id, Tag: tag}
	p.protocol.StampRecv(p, &p.stampEnv)
	probe.match = p.stampEnv.Match

	p.mu.Lock()
	defer p.mu.Unlock()
	msg, _, _ := p.scanUnexpectedLocked(probe)
	if msg == nil {
		return false, Status{}, nil
	}
	st := Status{
		Source: comm.CommRank(msg.env.Source),
		Tag:    msg.env.Tag,
		Bytes:  msg.env.Bytes,
		Match:  msg.env.Match,
		Seq:    msg.env.Seq,
	}
	// Probing observes the arrival: virtual time cannot be earlier than the
	// message's availability.
	if msg.arriveTime > p.clock.Now() {
		p.clock.AdvanceTo(msg.arriveTime)
	}
	return true, st, nil
}

// Probe blocks until a matching message is available and returns its status.
func (p *Proc) Probe(src, tag int, comm *Comm) (Status, error) {
	for {
		ok, st, err := p.Iprobe(src, tag, comm)
		if err != nil || ok {
			return st, err
		}
		p.mu.Lock()
		if p.world.Stopped() {
			p.mu.Unlock()
			return Status{}, ErrWorldStopped
		}
		if senders, flushed := p.flushHeldLocked(); flushed {
			p.mu.Unlock()
			completeSenders(senders)
			continue
		}
		p.sleepLocked(&p.ownPark)
		p.mu.Unlock()
	}
}

// PendingRequests returns the number of incomplete (not yet finalized)
// requests of the process.
func (p *Proc) PendingRequests() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// UnexpectedCount returns the number of messages in the unexpected queue.
func (p *Proc) UnexpectedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.unexpN
}
