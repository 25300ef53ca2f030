package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/buf"
	"repro/internal/checkpoint"
	"repro/internal/model"
	"repro/internal/mpi"
)

// The fault schedule is an ordered list of events. A static plan
// (Config.Faults) compiles to one event per distinct iteration; chaos hooks
// extend the list while the run is in flight — ScheduleFault inserts a
// regular event at a boundary no rank has passed yet, and ArmFault chains an
// event into a recovery that is being handled, which is how a second failure
// lands *inside* a rollback/replay window.
//
// An event rolls back the recovery groups its faults fail (a rollbackSet:
// the epoch view plus those group ids), so whether a rank or a channel end
// rolls back, and who leads, is a group lookup.
//
// Recovery has one rule per inter-group channel s→d with a rolled-back end.
// Once every rolled-back rank has restored, the leader reads d.seen (highest
// sequence number d received from s) and s.sent (last one s assigned to d)
// as they stand: a rolled-back end's restored state, a live end's live
// state. It replays (d.seen, s.sent] from s's log, and s, if recovering
// (rolled back now or still re-executing an earlier event), suppresses its
// re-sends up to d.seen. The rule never asks which wave a group restored, so
// co-failed groups on different waves and chained faults on any group
// recover alike.
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
//     quiescent bystander at its own boundary, and up to the arming boundary
//     the recovering ranks need none of its future sends: what they receive
//     from it there was sent before the arming event and comes from its log.
//     Bystanders step between two events only when no chained event is
//     pending, so no rank can be blocked mid-step on a parked peer.
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
	// chans are the event's recovery channels, written by the leader after
	// rendezvous 3 and read by every rank for its cutoffs after rendezvous 4.
	chans []recoveryChan
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
	slices.SortStableFunc(events, func(a, b *faultEvent) int { return cmp.Compare(a.iter, b.iter) })
	return events
}

// nextDueEvent returns the rank's next schedule event if it is due at the
// rank's current boundary, else nil. cursor is the number of events the rank
// has already processed.
func (e *Engine) nextDueEvent(cursor, rank, iter int) *faultEvent {
	e.eventMu.Lock()
	defer e.eventMu.Unlock()
	// From here on the rank may step past iter; ScheduleFault places no
	// event at or below it.
	if iter >= e.freeBoundary {
		e.freeBoundary = iter + 1
	}
	if cursor >= len(e.events) {
		return nil
	}
	ev := e.events[cursor]
	if (ev.armedBy == nil || ev.armedBy.has(rank)) && iter < ev.iter {
		return nil
	}
	return ev
}

// ScheduleFault inserts a fault into the plan of a running engine (chaos
// instrumentation for lifecycle hooks). If some rank has already checked the
// requested boundary, the fault moves to the first boundary no rank has
// checked: a rank that stepped on would block mid-step on a neighbour parked
// at the rendezvous. Every handed-out event lies at a checked boundary, so
// the processed prefix stays untouched. The boundary must lie inside the run.
func (e *Engine) ScheduleFault(f Fault) error {
	if f.Rank < 0 || f.Rank >= e.world.Size() {
		return fmt.Errorf("core: scheduled fault rank %d out of range [0,%d)", f.Rank, e.world.Size())
	}
	if f.Iteration < 0 || f.Iteration >= e.cfg.Steps {
		return fmt.Errorf("core: scheduled fault iteration %d out of range [0,%d)", f.Iteration, e.cfg.Steps)
	}
	e.eventMu.Lock()
	defer e.eventMu.Unlock()
	if f.Iteration < e.freeBoundary {
		if e.freeBoundary >= e.cfg.Steps {
			return fmt.Errorf("core: scheduled fault at iteration %d: a rank has already checked every boundary up to %d, the last of the run", f.Iteration, e.cfg.Steps-1)
		}
		f.Iteration = e.freeBoundary
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
// inside the arming event's rollback/replay window [0, arming iteration], so
// the failure lands while the rolled-back ranks are still re-executing. Any
// rank is a legal target: the per-channel replay/suppress rule (see
// faultEvent) serves a chained rollback of any group. Legal only inside a
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

	if member {
		e.mu.Lock()
		if t := p.Now(); t > ev.failTime {
			ev.failTime = t
		}
		e.mu.Unlock()
	}

	// Rendezvous 2: failure times captured everywhere, storage stable.
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
		p.RestoreChannels(cp.Channels)
		if err := e.protos[rank].RestoreState(cp.Protocol); err != nil {
			return 0, false, fmt.Errorf("core: rank %d: %w", rank, err)
		}
		for _, f := range ev.faults {
			if f.Rank == rank {
				// The failed rank lost its memory: its sender-based log comes
				// back from the checkpoint. Co-rollback peers keep their
				// in-memory logs (re-logging is deduplicated by sequence
				// number).
				e.stores[rank].Restore(cp.Logs)
				break
			}
		}
		e.counters.restored.Add(1)
		e.mu.Lock()
		e.rolled[rank] = true
		e.mu.Unlock()
	}

	// Rendezvous 3: every rolled-back rank has restored its state; the
	// recovery leader reads every recovery channel's (seen, sent) pair, then
	// injects the replays.
	if err := e.bar.await(); err != nil {
		return 0, false, err
	}
	if rank == leader {
		ev.chans = recoveryChans(e.world, set)
		if err := e.injectReplays(ev); err != nil {
			return 0, false, err
		}
		e.counters.recoveryEvents.Add(1)
	}

	// Rendezvous 4: replayed messages are lodged in their destinations'
	// queues before anyone resumes, so later direct sends stay in FIFO order
	// behind the replays.
	if err := e.bar.await(); err != nil {
		return 0, false, err
	}
	e.protos[rank].beginRecovery(member, cutoffsOf(ev.chans, rank))
	if !member {
		return iter, false, nil
	}
	return cp.Iteration, true, nil
}

// recoveryChan is one inter-group channel src→dst on communicator comm with a
// rolled-back end, with dst's seen and src's sent sequence numbers on it.
type recoveryChan struct {
	src, dst, comm int
	seen, sent     uint64
}

// recoveryChans reads every inter-group channel with an end in set, ordered by
// sender, communicator, destination: O(world + channels). A rank's outgoing
// channel list keeps every channel it ever used, also across restores.
func recoveryChans(w *mpi.World, set rollbackSet) []recoveryChan {
	var chans []recoveryChan
	for s := 0; s < w.Size(); s++ {
		p := w.Proc(s)
		keys := p.OutChannels()
		slices.SortFunc(keys, mpi.ChanKey.Compare)
		for _, key := range keys {
			d := key.Peer
			if !set.view.Logs(s, d) || !set.has(s) && !set.has(d) {
				continue
			}
			chans = append(chans, recoveryChan{
				src: s, dst: d, comm: key.Comm,
				seen: w.Proc(d).InState(s, key.Comm).MaxSeqSeen,
				sent: p.OutSeq(d, key.Comm),
			})
		}
	}
	return chans
}

// cutoffsOf returns the channels of chans whose sender is rank.
func cutoffsOf(chans []recoveryChan, rank int) []recoveryChan {
	lo, _ := slices.BinarySearchFunc(chans, rank, func(c recoveryChan, r int) int { return cmp.Compare(c.src, r) })
	hi, _ := slices.BinarySearchFunc(chans, rank+1, func(c recoveryChan, r int) int { return cmp.Compare(c.src, r) })
	return chans[lo:hi]
}

// injectReplays replays every recovery channel's (seen, sent] range from the
// sender's log, per channel in sequence order; virtual availability times
// start after the failure time plus a control latency. Each replayed message
// carries the logged buffer itself, as a direct send does.
func (e *Engine) injectReplays(ev *faultEvent) error {
	cost := e.world.Cost()
	e.mu.Lock()
	start := ev.failTime + cost.ControlLatency
	e.mu.Unlock()
	records, bytes := 0, uint64(0)
	for _, c := range ev.chans {
		t := start
		err := e.stores[c.src].Replay(c.dst, c.comm, c.seen, c.sent, func(env mpi.Envelope, payload *buf.Buffer) error {
			n := payload.Len()
			t += cost.TransferTime(c.src, c.dst, n)
			if err := e.world.InjectReplay(env, payload, t); err != nil {
				// A dropped replay would leave the destination blocked
				// forever on the missing sequence number.
				return fmt.Errorf("core: replay %d->%d (comm %d) seq %d: %w",
					c.src, c.dst, c.comm, env.Seq, err)
			}
			records++
			bytes += uint64(n)
			return nil
		})
		if err != nil {
			return err
		}
	}
	e.counters.replayedRecords.Add(int64(records))
	e.counters.replayedBytes.Add(bytes)
	return nil
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

// has reports whether rank rolls back.
func (s rollbackSet) has(rank int) bool { return slices.Contains(s.groups, s.view.Group(rank)) }

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
