package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/simnet"
)

// This file extends the failure script DSL from node/storage faults to the
// message fabric. Network events lower to simnet.NetChaos rules (seeded by
// Scenario.NetSeed), so the whole perturbation schedule stays a deterministic
// function of the scenario value; NetDuring attaches a rule to a lifecycle
// gate so a perturbation window can straddle a phase — a partition across the
// epoch switch, a delay burst across the commit drain — whose virtual time is
// unknown when the scenario is built.

// Delay adds extra latency (plus seeded jitter up to jitter seconds) to every
// message on the matching link for the whole run. src/dst are world ranks; -1
// matches any rank.
func Delay(src, dst int, extra, jitter float64) Event {
	return netDelay{Src: src, Dst: dst, Extra: extra, Jitter: jitter}
}

// DelayWindow is Delay restricted to messages sent inside [from, to) virtual
// seconds; to <= 0 leaves the window open-ended.
func DelayWindow(src, dst int, from, to, extra, jitter float64) Event {
	return netDelay{Src: src, Dst: dst, From: from, To: to, Extra: extra, Jitter: jitter}
}

// Reorder scrambles the arrival timing of each consecutive window of messages
// on the matching channels with a seeded permutation spread over spread
// seconds. Per-channel FIFO matching is preserved by construction; what moves
// is the timing protocols piggyback state on.
func Reorder(src, dst, window int, spread float64) Event {
	return netReorder{Src: src, Dst: dst, Window: window, Spread: spread}
}

// CrossReorder buffers up to window messages at the destination and releases
// them in a seeded order that permutes arrival order across channels — the
// adversarial input for wildcard (AnySource) matching. Per-channel FIFO still
// holds; dst -1 matches every destination.
func CrossReorder(dst, window int) Event {
	return netCrossReorder{Dst: dst, Window: window}
}

// Partition cuts every link between two checkpoint clusters over [from, to)
// virtual seconds: sends across the cut stall and arrive only after the heal.
// The scenario needs a cluster assignment (the SPBC protocols default one).
func Partition(clusterA, clusterB int, from, to float64) Event {
	return netPartition{ClusterA: clusterA, ClusterB: clusterB, From: from, To: to}
}

// NetDuring activates a network event only from the given lifecycle phase on,
// for duration virtual seconds past the phase's trigger: the rule's window is
// published by the phase hook, so the perturbation straddles the phase however
// the run's timing falls. The inner event must be one of the network events
// above (with its static window ignored).
func NetDuring(p Phase, inner Event, duration float64) Event {
	return netDuring{Phase: p, Inner: inner, Duration: duration}
}

// AfterRecovery chains a crash of the given rank onto the completion of the
// scenario's first recovery: when the first rolled-back rank's re-execution
// reaches its failure point, the chained fault is scheduled at the next
// checkpoint boundary — the world is hit again just as it regains a durable
// footing.
func AfterRecovery(rank int) Event { return afterRecovery{Rank: rank} }

// AfterCapture schedules a crash of the given rank at the boundary of the
// wave'th checkpoint capture (wave >= 1): the fault lands while the freshly
// captured wave is still draining through the background committer, forcing
// recovery to decide between the in-flight wave and the previous durable one.
func AfterCapture(rank, wave int) Event { return afterCapture{Rank: rank, Wave: wave} }

type netDelay struct {
	Src, Dst      int
	From, To      float64
	Extra, Jitter float64
}
type netReorder struct {
	Src, Dst, Window int
	Spread           float64
}
type netCrossReorder struct{ Dst, Window int }
type netPartition struct {
	ClusterA, ClusterB int
	From, To           float64
}
type netDuring struct {
	Phase    Phase
	Inner    Event
	Duration float64
}
type afterRecovery struct{ Rank int }
type afterCapture struct{ Rank, Wave int }

// ensureNet lazily creates the compilation's network rule set; Validate runs
// at the end of compile, with the scenario's seed installed.
func (c *compilation) ensureNet() *simnet.NetChaos {
	if c.net == nil {
		c.net = &simnet.NetChaos{}
	}
	return c.net
}

func (d netDelay) apply(_ *Scenario, c *compilation) error {
	c.ensureNet().Delays = append(c.net.Delays, simnet.DelayRule{
		Src: d.Src, Dst: d.Dst, From: d.From, To: d.To,
		Extra: d.Extra, Jitter: d.Jitter, Gate: c.gate,
	})
	return nil
}

func (r netReorder) apply(_ *Scenario, c *compilation) error {
	c.ensureNet().Reorders = append(c.net.Reorders, simnet.ReorderRule{
		Src: r.Src, Dst: r.Dst, Window: r.Window, Spread: r.Spread, Gate: c.gate,
	})
	return nil
}

func (h netCrossReorder) apply(_ *Scenario, c *compilation) error {
	c.ensureNet().Holds = append(c.net.Holds, simnet.HoldRule{
		Dst: h.Dst, Window: h.Window, Gate: c.gate,
	})
	return nil
}

func (p netPartition) apply(sc *Scenario, c *compilation) error {
	if sc.ClusterOf == nil {
		return fmt.Errorf("chaos: scenario %s: Partition needs a cluster assignment", sc.Name)
	}
	var a, b []int
	for r, cl := range sc.ClusterOf {
		switch cl {
		case p.ClusterA:
			a = append(a, r)
		case p.ClusterB:
			b = append(b, r)
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("chaos: scenario %s: Partition(%d,%d): no such cluster pair", sc.Name, p.ClusterA, p.ClusterB)
	}
	c.ensureNet().Partitions = append(c.net.Partitions, simnet.PartitionRule{
		A: a, B: b, From: p.From, To: p.To, Gate: c.gate,
	})
	return nil
}

func (d netDuring) apply(sc *Scenario, c *compilation) error {
	switch d.Inner.(type) {
	case netDelay, netReorder, netCrossReorder, netPartition:
	default:
		return fmt.Errorf("chaos: scenario %s: NetDuring wraps %T, which is not a network event", sc.Name, d.Inner)
	}
	if c.gate != nil {
		return fmt.Errorf("chaos: scenario %s: NetDuring cannot nest", sc.Name)
	}
	if d.Duration <= 0 {
		return fmt.Errorf("chaos: scenario %s: NetDuring needs a positive duration", sc.Name)
	}
	gate := &simnet.Gate{}
	c.gate = gate
	err := d.Inner.apply(sc, c)
	c.gate = nil
	if err != nil {
		return err
	}

	fired := &atomic.Bool{}
	duration := d.Duration
	// The window opens at 0, not at the trigger's clock: rolled-back ranks
	// re-execute sends with restored (past) timestamps, and those must fall
	// inside an open gate. Closing time is the latest rank clock at the
	// trigger plus the duration, so the perturbation demonstrably straddles
	// the phase and then heals.
	open := func(e *core.Engine) {
		if fired.Swap(true) {
			return
		}
		to := 0.0
		if e != nil {
			w := e.World()
			for r := 0; r < w.Size(); r++ {
				if t := w.Proc(r).Now(); t > to {
					to = t
				}
			}
		}
		gate.Open(0, to+duration)
	}

	switch d.Phase {
	case Recovery:
		if len(c.faults) == 0 {
			return fmt.Errorf("chaos: scenario %s: NetDuring(Recovery) needs a preceding crash event", sc.Name)
		}
		c.must = append(c.must, mustFire{desc: fmt.Sprintf("NetDuring(Recovery, %T) gate", d.Inner), fired: fired})
		c.reg.Register(core.PointRecoveryStart, func(e *core.Engine, _ core.PointInfo) { open(e) })
	case EpochSwitch:
		if sc.Protocol != runner.ProtocolSPBCAdaptive {
			return fmt.Errorf("chaos: scenario %s: NetDuring(EpochSwitch) needs %s, not %s", sc.Name, runner.ProtocolSPBCAdaptive, sc.Protocol)
		}
		c.must = append(c.must, mustFire{desc: fmt.Sprintf("NetDuring(EpochSwitch, %T) gate", d.Inner), fired: fired})
		c.reg.Register(core.PointEpochSwitch, func(e *core.Engine, _ core.PointInfo) { open(e) })
	case CommitDrain:
		c.must = append(c.must, mustFire{desc: fmt.Sprintf("NetDuring(CommitDrain, %T) gate", d.Inner), fired: fired})
		c.reg.Register(core.PointMidCommitDrain, func(e *core.Engine, info core.PointInfo) {
			// Never the first wave: its drain precedes any interesting traffic.
			if info.Wave >= 1 {
				open(e)
			}
		})
	default:
		return fmt.Errorf("chaos: scenario %s: unknown phase %q", sc.Name, d.Phase)
	}
	return nil
}

func (a afterRecovery) apply(sc *Scenario, c *compilation) error {
	if a.Rank < 0 || a.Rank >= sc.Ranks {
		return fmt.Errorf("chaos: scenario %s: AfterRecovery rank %d out of range [0,%d)", sc.Name, a.Rank, sc.Ranks)
	}
	if len(c.faults) == 0 {
		return fmt.Errorf("chaos: scenario %s: AfterRecovery needs a preceding crash event to recover from", sc.Name)
	}
	// The chained fault lands at the first checkpoint boundary past the
	// failure point; validate up front that one exists for the earliest
	// possible recovery (the dynamic check below covers the actual one).
	minIter := c.faults[0].Iteration
	for _, f := range c.faults {
		if f.Iteration < minIter {
			minIter = f.Iteration
		}
	}
	if target := (minIter/sc.Interval + 1) * sc.Interval; target >= sc.Steps {
		return fmt.Errorf("chaos: scenario %s: AfterRecovery: no checkpoint boundary after the failure point %d within %d steps", sc.Name, minIter, sc.Steps)
	}
	fired := &atomic.Bool{}
	c.must = append(c.must, mustFire{desc: fmt.Sprintf("AfterRecovery(%d): the first recovery's completion", a.Rank), fired: fired})
	c.crashed[a.Rank] = true
	rank, interval, steps := a.Rank, sc.Interval, sc.Steps
	c.reg.Register(core.PointRecoveryEnd, func(e *core.Engine, info core.PointInfo) {
		if fired.Swap(true) {
			return
		}
		// The hook runs on the recovering rank at its failure-point boundary;
		// the next checkpoint boundary is strictly ahead of it, so the
		// world-wide fault rendezvous there is still reachable by every rank.
		target := (info.Iteration/interval + 1) * interval
		if target >= steps {
			c.hookErr(fmt.Errorf("chaos: AfterRecovery(%d): recovery ended at iteration %d with no later checkpoint boundary within %d steps", rank, info.Iteration, steps))
			return
		}
		if err := e.ScheduleFault(core.Fault{Rank: rank, Iteration: target}); err != nil {
			c.hookErr(err)
		}
	})
	return nil
}

func (a afterCapture) apply(sc *Scenario, c *compilation) error {
	if a.Rank < 0 || a.Rank >= sc.Ranks {
		return fmt.Errorf("chaos: scenario %s: AfterCapture rank %d out of range [0,%d)", sc.Name, a.Rank, sc.Ranks)
	}
	if a.Wave < 1 {
		return fmt.Errorf("chaos: scenario %s: AfterCapture wave %d: the initial wave is the recovery baseline, chain onto wave >= 1", sc.Name, a.Wave)
	}
	if a.Wave*sc.Interval >= sc.Steps {
		return fmt.Errorf("chaos: scenario %s: AfterCapture wave %d is never captured in %d steps at interval %d", sc.Name, a.Wave, sc.Steps, sc.Interval)
	}
	fired := &atomic.Bool{}
	c.must = append(c.must, mustFire{desc: fmt.Sprintf("AfterCapture(%d, %d): a schedulable capture at or after wave %d", a.Rank, a.Wave, a.Wave), fired: fired})
	c.crashed[a.Rank] = true
	rank, wave := a.Rank, a.Wave
	var mu sync.Mutex
	c.reg.Register(core.PointPostCapture, func(e *core.Engine, info core.PointInfo) {
		if info.Wave < wave {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if fired.Load() {
			return
		}
		// The firing rank is still inside the wave's exit barrier at this
		// boundary, so the boundary's fault rendezvous is ahead of its whole
		// cluster. A rank of another cluster may already have checked the
		// boundary and stepped on; the engine then moves the fault to the
		// first boundary no rank has checked. When the run has no such
		// boundary left it rejects the fault and the next capture retries;
		// mustFire reports the scenario that never finds a boundary.
		if err := e.ScheduleFault(core.Fault{Rank: rank, Iteration: info.Iteration}); err != nil {
			return
		}
		fired.Store(true)
	})
	return nil
}
