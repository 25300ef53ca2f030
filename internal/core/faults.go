package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/logstore"
	"repro/internal/model"
	"repro/internal/mpi"
)

// The fault schedule is an ordered list of events. A static plan
// (Config.Faults) compiles to one event per distinct iteration; chaos hooks
// extend the list while the run is in flight — ScheduleFault inserts a
// regular event from a quiescent boundary hook, and ArmFault chains an event
// into a recovery that is being handled, which is how a second failure lands
// *inside* a rollback/replay window.
//
// An event rolls back the recovery groups its faults fail (a rollbackSet:
// the epoch view plus those group ids), so every question recovery asks of
// the set — does this rank, or this channel end, roll back; who leads — is a
// group lookup, and one event's bookkeeping is O(rolled-back set), never
// O(world × set).
//
// Every rank processes the events in list order (a per-rank cursor), and
// every event is a full-world rendezvous, so the recovery barrier generations
// stay aligned across ranks by construction. When a rank becomes due for an
// event is the subtle part:
//
//   - For a plan event, a rank is due when its iteration reaches the event's
//     (re-executed boundaries behind the cursor are skipped, exactly the old
//     handled-map semantics).
//   - For a chained event, the ranks of the groups rolled back by the
//     *arming* event are re-executing their replay window; they join when
//     re-execution reaches the chained iteration (or immediately, if they
//     restored past it). Every other rank joins immediately — it is a
//     quiescent bystander at its own boundary, and the recovering ranks
//     cannot need its future sends: their inter-set receives come from the
//     log replay. Bystanders step between two events only when no chained
//     event is pending, so no rank can be blocked mid-step on a parked peer.
//
// A chained iteration must not exceed the arming event's (ArmFault rejects
// it): past that boundary the recovering ranks rejoin live traffic and would
// deadlock against bystanders already parked at the chained rendezvous.
type faultEvent struct {
	// iter is the iteration boundary that triggers the event (for chained
	// events: the boundary at which the re-executing armed ranks join).
	iter   int
	faults []Fault
	// armedBy is nil for plan events. For a chained event it is the arming
	// event's rollback set, shared with it (groups under the arming event's
	// view): its ranks defer joining to their re-execution of iter.
	armedBy *rollbackSet
	// failTime is the maximum virtual time across the event's rolled-back
	// set at the moment of the failure; replay availability starts after it.
	// Guarded by Engine.mu.
	failTime float64
}

// buildEvents compiles a validated static fault plan into the initial event
// schedule: one event per distinct iteration, ascending.
func buildEvents(faults []Fault) []*faultEvent {
	byIter := make(map[int]*faultEvent)
	var events []*faultEvent
	for _, f := range faults {
		ev := byIter[f.Iteration]
		if ev == nil {
			ev = &faultEvent{iter: f.Iteration}
			byIter[f.Iteration] = ev
			events = append(events, ev)
		}
		ev.faults = append(ev.faults, f)
	}
	sortEvents(events)
	return events
}

func sortEvents(events []*faultEvent) {
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j-1].iter > events[j].iter; j-- {
			events[j-1], events[j] = events[j], events[j-1]
		}
	}
}

// nextDueEvent returns the rank's next schedule event if it is due at the
// rank's current boundary, else nil. cursor is the number of events the rank
// has already processed.
func (e *Engine) nextDueEvent(cursor, rank, iter int) *faultEvent {
	e.eventMu.Lock()
	defer e.eventMu.Unlock()
	if cursor >= len(e.events) {
		return nil
	}
	ev := e.events[cursor]
	if (ev.armedBy == nil || ev.armedBy.has(rank)) && iter < ev.iter {
		return nil
	}
	// The event is being handed out for processing: from here on, inserting a
	// new event at an earlier iteration would land before it in the sorted
	// schedule and corrupt the per-rank cursors. eventFloor is the guard
	// ScheduleFault checks.
	if ev.iter > e.eventFloor {
		e.eventFloor = ev.iter
	}
	return ev
}

// ScheduleFault inserts a fault into the plan of a running engine. It is
// chaos instrumentation for lifecycle hooks that fire while the whole world
// is quiescent at an iteration boundary — PointEpochSwitch in particular:
// there every rank is parked at the adaptive decision gate and the fault
// becomes a regular plan event before any rank re-checks the schedule. The
// iteration must not precede the boundary the hook fired at (the schedule's
// processed prefix is immutable) and must lie inside the run.
func (e *Engine) ScheduleFault(f Fault) error {
	if f.Rank < 0 || f.Rank >= e.world.Size() {
		return fmt.Errorf("core: scheduled fault rank %d out of range [0,%d)", f.Rank, e.world.Size())
	}
	if f.Iteration < 0 || f.Iteration >= e.cfg.Steps {
		return fmt.Errorf("core: scheduled fault iteration %d out of range [0,%d)", f.Iteration, e.cfg.Steps)
	}
	e.eventMu.Lock()
	defer e.eventMu.Unlock()
	if f.Iteration < e.eventFloor {
		return fmt.Errorf("core: scheduled fault at iteration %d precedes an event already being processed at iteration %d: the schedule's processed prefix is immutable (hooks must target the current boundary or later)", f.Iteration, e.eventFloor)
	}
	i := len(e.events)
	for i > 0 && e.events[i-1].iter > f.Iteration {
		i--
	}
	ev := &faultEvent{iter: f.Iteration, faults: []Fault{f}}
	e.events = append(e.events, nil)
	copy(e.events[i+1:], e.events[i:])
	e.events[i] = ev
	return nil
}

// ArmFault chains a fault into the recovery currently being handled: the new
// event is inserted directly after the arming event, its iteration pinned
// inside the arming event's rollback/replay window, so the failure lands
// while the rolled-back ranks are still re-executing. Legal only inside a
// PointRecoveryStart hook (which runs on the recovery leader while every
// rank is parked in the fault rendezvous).
func (e *Engine) ArmFault(f Fault) error {
	e.eventMu.Lock()
	defer e.eventMu.Unlock()
	if e.arming == nil {
		return fmt.Errorf("core: ArmFault is only legal inside a %s hook", PointRecoveryStart)
	}
	if f.Rank < 0 || f.Rank >= e.world.Size() {
		return fmt.Errorf("core: chained fault rank %d out of range [0,%d)", f.Rank, e.world.Size())
	}
	if f.Iteration < 0 || f.Iteration > e.arming.iter {
		return fmt.Errorf("core: chained fault iteration %d outside the arming event's window [0,%d]: past the failure point the recovering ranks rejoin live traffic and the chained rendezvous would deadlock", f.Iteration, e.arming.iter)
	}
	armedBy := e.armingSet
	ev := &faultEvent{iter: f.Iteration, faults: []Fault{f}, armedBy: &armedBy}
	// A chained fault below the arming boundary is only safe when every
	// recovering group rolls back again with it. Otherwise a recovering rank
	// stays outside the chained set while its sender log is still missing the
	// entries wiped by its own restore: the replay injected for the chained
	// rollback cannot include them, and the later re-sends are suppressed by
	// the first recovery's cutoffs — the chained rollback would starve. At the
	// arming boundary itself every recovering rank has re-executed (and
	// re-logged) its full window before joining, so any target is safe.
	if f.Iteration < e.arming.iter {
		chained := newRollbackSet(armedBy.view, ev.faults)
		for _, g := range armedBy.groups {
			if !chained.hasGroup(g) {
				return fmt.Errorf("core: chained fault on rank %d at iteration %d rolls back a set that excludes recovering rank %d: below the arming boundary %d the recovering ranks have not yet re-logged the sends the chained rollback must replay; target the recovery's own group or use iteration %d", f.Rank, f.Iteration, armedBy.view.Members(g)[0], e.arming.iter, e.arming.iter)
			}
		}
	}
	pos := -1
	for i, cand := range e.events {
		if cand == e.arming {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("core: arming event vanished from the schedule")
	}
	pos += 1 + e.armed
	e.armed++
	e.events = append(e.events, nil)
	copy(e.events[pos+1:], e.events[pos:])
	e.events[pos] = ev
	return nil
}

// openArming opens the ArmFault window for one event's recovery-start hook.
// set is the event's rollback set.
func (e *Engine) openArming(ev *faultEvent, set rollbackSet) {
	e.eventMu.Lock()
	e.arming, e.armingSet, e.armed = ev, set, 0
	e.eventMu.Unlock()
}

func (e *Engine) closeArming() {
	e.eventMu.Lock()
	e.arming, e.armingSet, e.armed = nil, rollbackSet{}, 0
	e.eventMu.Unlock()
}

// handleFaultEvent performs the globally coordinated part of recovery for one
// schedule event. Every rank participates in the rendezvous (the
// failure-detection pause); only the ranks of the failed clusters roll back.
// Recovery always runs under the current epoch's view: the wave that opened
// the epoch was forced durable before any rank advanced past it, so the
// restored wave can never predate the epoch. iter is the calling rank's own
// boundary (ranks pulled into a chained event join at heterogeneous
// boundaries). It returns the iteration to resume from and whether the
// calling rank rolled back.
func (e *Engine) handleFaultEvent(p *mpi.Proc, app model.App, ev *faultEvent, iter int) (resume int, rolledBack bool, err error) {
	rank := p.Rank()
	view := e.currentView()
	set := newRollbackSet(view, ev.faults)
	leader, member := set.leader(), set.has(rank)

	// Rendezvous 1: the whole world is quiescent — every rank is at an
	// iteration boundary with no pending requests and no in-flight sends.
	if err := e.bar.await(); err != nil {
		return 0, false, err
	}

	// The recovery leader discards every checkpoint wave of the failed
	// groups that is still draining in the background: a checkpoint is not
	// usable for rollback until it is durably published, so recovery
	// proceeds from the last durable wave — whose replay records are still
	// in the senders' logs, because remote-log GC runs only after a wave
	// commits. This happens before rendezvous 2, so every subsequent Load
	// observes a stable storage state.
	if rank == leader {
		n := e.committer.cancelClusters(set.groups)
		e.counters.wavesCanceled.Add(int64(n))
		// Storage is stable and everyone is parked: this is the window in
		// which a chaos hook may chain a second failure into the recovery.
		e.openArming(ev, set)
		e.firePoint(PointRecoveryStart, PointInfo{
			Rank: rank, Cluster: view.Group(rank), Iteration: ev.iter, Wave: -1, Epoch: view.Epoch(),
		})
		e.closeArming()
	}

	var cuts map[mpi.ChanKey]uint64
	if member {
		// Capture, per outgoing channel that leaves the rolled-back set, the
		// last sequence number assigned before the failure: re-executed sends
		// at or below it were already received and must be suppressed.
		cuts = make(map[mpi.ChanKey]uint64)
		for _, key := range p.OutChannels() {
			if !set.has(key.Peer) {
				cuts[key] = p.OutSeq(key.Peer, key.Comm)
			}
		}
		e.mu.Lock()
		if t := p.Now(); t > ev.failTime {
			ev.failTime = t
		}
		e.mu.Unlock()
	}

	// Rendezvous 2: cutoffs and failure times captured everywhere.
	if err := e.bar.await(); err != nil {
		return 0, false, err
	}

	var cp *checkpoint.Checkpoint
	if member {
		loaded, ok, lerr := e.cfg.Storage.Load(rank)
		if lerr != nil {
			return 0, false, fmt.Errorf("core: rank %d: load checkpoint: %w", rank, lerr)
		}
		if !ok {
			// cancelClusters stops waiting for a first durable wave once a
			// commit has failed; that failure is why there is nothing to load.
			if cerr := e.committer.firstErr(); cerr != nil {
				return 0, false, fmt.Errorf("core: rank %d: no checkpoint to roll back to: %w", rank, cerr)
			}
			return 0, false, fmt.Errorf("core: rank %d: no checkpoint to roll back to", rank)
		}
		cp = loaded
		if cp.Epoch != view.Epoch() {
			// The epoch's opening wave is durable before anyone advances, so
			// a restored checkpoint from another epoch means the recovery
			// line was violated.
			return 0, false, fmt.Errorf("core: rank %d: restored checkpoint of epoch %d under epoch %d", rank, cp.Epoch, view.Epoch())
		}
		if err := app.Restore(cp.AppState); err != nil {
			return 0, false, fmt.Errorf("core: rank %d: restore app: %w", rank, err)
		}
		p.RestoreChannels(cp.Channels, nil)
		if err := e.protos[rank].RestoreState(cp.Protocol); err != nil {
			return 0, false, fmt.Errorf("core: rank %d: %w", rank, err)
		}
		for _, f := range ev.faults {
			if f.Rank == rank {
				// The failed rank lost its memory: its sender-based log comes
				// back from the checkpoint. Co-rollback peers keep their
				// in-memory logs (re-logging is deduplicated by sequence
				// number).
				e.stores[rank].RestoreFrom(storeFromRecords(cp.Logs))
				break
			}
		}
		e.protos[rank].beginRecovery(cuts)
		e.counters.restored.Add(1)
		e.mu.Lock()
		e.rolled[rank] = true
		e.mu.Unlock()
	}

	// Rendezvous 3: every rolled-back rank has restored its state; the
	// recovery leader can now inject the logged inter-cluster messages.
	if err := e.bar.await(); err != nil {
		return 0, false, err
	}
	if rank == leader {
		if err := e.injectReplays(ev, set); err != nil {
			return 0, false, err
		}
		e.counters.recoveryEvents.Add(1)
	}

	// Rendezvous 4: replayed messages are lodged in the recovering ranks'
	// queues before anyone resumes, so later direct sends stay in FIFO order
	// behind the replays.
	if err := e.bar.await(); err != nil {
		return 0, false, err
	}
	if !member {
		return iter, false, nil
	}
	return cp.Iteration, true, nil
}

// injectReplays replays, from the log stores of the surviving ranks, every
// inter-cluster message that a rolled-back rank had received after its
// restored checkpoint (restored MaxSeqSeen onwards). Replay is per channel in
// sequence order; virtual availability times start after the failure time
// plus a control latency.
func (e *Engine) injectReplays(ev *faultEvent, set rollbackSet) error {
	cost := e.world.Cost()
	e.mu.Lock()
	start := ev.failTime + cost.ControlLatency
	e.mu.Unlock()
	records, bytes := 0, uint64(0)
	for _, c := range replayChannels(e.stores, set) {
		from := e.world.Proc(c.dst).InState(c.src, c.comm).MaxSeqSeen + 1
		t := start
		for _, r := range e.stores[c.src].Range(c.dst, c.comm, from) {
			t += cost.TransferTime(c.src, c.dst, len(r.Payload))
			if err := e.world.InjectReplay(r.Env, r.Payload, t); err != nil {
				// A dropped replay would leave the recovering rank blocked
				// forever on the missing sequence number.
				return fmt.Errorf("core: replay %d->%d (comm %d) seq %d: %w",
					c.src, c.dst, c.comm, r.Env.Seq, err)
			}
			records++
			bytes += uint64(len(r.Payload))
		}
	}
	e.counters.replayedRecords.Add(int64(records))
	e.counters.replayedBytes.Add(bytes)
	return nil
}

// replayChan names one logged channel a recovery replays: sender src's log
// of its messages to dst on communicator comm.
type replayChan struct{ dst, src, comm int }

// replayChannels returns every logged channel from a sender outside the set
// into a rank inside it, in replay order: destination ascending, then sender
// ascending, then the sender store's channel order. Each surviving sender's
// channel list is read once, so the cost is O(world + channels), not one
// list copy per (destination, sender) pair.
func replayChannels(stores []*logstore.Store, set rollbackSet) []replayChan {
	var chans []replayChan
	for s, store := range stores {
		if set.has(s) {
			continue
		}
		for _, key := range store.Channels() {
			if set.has(key.Peer) {
				chans = append(chans, replayChan{dst: key.Peer, src: s, comm: key.Comm})
			}
		}
	}
	// Senders were visited ascending, each in its store's channel order, so
	// bucketing by destination with a stable sort keeps both orders inside
	// every bucket.
	slices.SortStableFunc(chans, func(a, b replayChan) int { return cmp.Compare(a.dst, b.dst) })
	return chans
}

// rollbackSet is the set of ranks one fault event rolls back: the recovery
// groups its faults fail, under one epoch view. It holds the view and the
// failed group ids, so membership is a lookup against at most len(faults)
// ids, and building, testing and leading the set never touch a world-sized
// structure.
type rollbackSet struct {
	view   *EpochView
	groups []int // failed group ids, distinct, ascending
}

// newRollbackSet returns the set the given faults roll back under view.
func newRollbackSet(view *EpochView, faults []Fault) rollbackSet {
	groups := make([]int, 0, len(faults))
	for _, f := range faults {
		g := view.Group(f.Rank)
		if i, found := slices.BinarySearch(groups, g); !found {
			groups = slices.Insert(groups, i, g)
		}
	}
	return rollbackSet{view: view, groups: groups}
}

// hasGroup reports whether group g rolls back.
func (s rollbackSet) hasGroup(g int) bool { return slices.Contains(s.groups, g) }

// has reports whether rank rolls back.
func (s rollbackSet) has(rank int) bool { return s.hasGroup(s.view.Group(rank)) }

// leader returns the lowest rank of the set (the recovery leader).
func (s rollbackSet) leader() int {
	leader := -1
	for _, g := range s.groups {
		if r := s.view.Members(g)[0]; leader < 0 || r < leader {
			leader = r
		}
	}
	return leader
}
