package chaos

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// This file is the scenario minimizer: a failing schedule — typically a
// generated one with half a dozen stacked fault classes — is reduced to the
// smallest event list that still reproduces the failure, first by ddmin-style
// bisection over the event list, then by weakening each surviving event's
// magnitudes (delays, windows, counts) to their smallest still-failing
// values. The result carries a compilable Go literal of the minimized
// scenario, so a CI failure lands in the repo as a seed-free regression
// scenario instead of an opaque generator seed.

// Shrunk is the result of a Shrink run.
type Shrunk struct {
	// Scenario is the minimized still-failing scenario.
	Scenario Scenario
	// Runs is how many times the failing predicate was evaluated.
	Runs int
	// Literal is a compilable Go literal of the minimized scenario.
	Literal string
}

// Reproduces is the predicate CI shrinking uses: the scenario must be valid
// (it normalizes and compiles — an event list whose dependencies were cut by
// a removal probe is not a reproduction) and its run must violate the chaos
// invariants.
func Reproduces(sc Scenario) bool {
	tmp := sc
	if err := tmp.normalize(); err != nil {
		return false
	}
	if _, err := compile(&tmp); err != nil {
		return false
	}
	return !Check(sc).Passed
}

// ShrinkWorkers bounds the worker pool Shrink evaluates candidate batches
// on. 0 (the default) selects GOMAXPROCS; 1 forces the fully sequential
// scan. The parallel path is speculative — probes past the batch's first
// failing candidate may run but their verdicts are discarded — so any value
// produces the same minimized scenario and the same Runs count as workers=1.
var ShrinkWorkers = 0

// shrinkEval evaluates ordered candidate batches against the failing
// predicate, speculatively in parallel, while charging Runs exactly as the
// sequential scan would: one run per non-empty candidate up to and
// including the batch's first failing one.
type shrinkEval struct {
	sc      Scenario
	failing func(Scenario) bool
	workers int
	runs    int
}

// check runs the predicate on one candidate event list. It must be safe for
// concurrent calls (the predicate builds its own world per call).
func (e *shrinkEval) check(events []Event) bool {
	if len(events) == 0 {
		return false // a scenario needs at least one event
	}
	cand := e.sc
	cand.Events = events
	return e.failing(cand)
}

// tryOne is the sequential single-candidate probe (used for the initial
// does-it-fail-at-all check).
func (e *shrinkEval) tryOne(events []Event) bool {
	if len(events) == 0 {
		return false
	}
	e.runs++
	return e.check(events)
}

// firstFailing returns the index of the first failing candidate in the
// batch, or -1. With more than one worker the batch is evaluated
// speculatively on a bounded pool; the scan over the verdicts afterwards is
// sequential, so the chosen index and the Runs accounting are identical to
// the workers=1 path.
func (e *shrinkEval) firstFailing(cands [][]Event) int {
	if e.workers <= 1 || len(cands) <= 1 {
		for i, c := range cands {
			if e.tryOne(c) {
				return i
			}
		}
		return -1
	}
	verdicts := make([]bool, len(cands))
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	for i := range cands {
		if len(cands[i]) == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			verdicts[i] = e.check(cands[i])
			<-sem
		}(i)
	}
	wg.Wait()
	for i, v := range verdicts {
		if len(cands[i]) == 0 {
			continue
		}
		e.runs++
		if v {
			return i
		}
	}
	return -1
}

// Shrink minimizes a failing scenario against the predicate. Both phases are
// fully deterministic (no randomness; candidate order is a pure function of
// the event list), so the same input scenario and predicate always produce
// the same minimized scenario, byte for byte. Each round's candidate batch
// is probed in parallel on up to ShrinkWorkers workers; because the probes
// are speculative and the verdict scan stays ordered, the worker count never
// changes the result — the predicate just has to tolerate concurrent calls
// (Reproduces does: every Check builds its own world).
func Shrink(sc Scenario, failing func(Scenario) bool) (Shrunk, error) {
	workers := ShrinkWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eval := &shrinkEval{sc: sc, failing: failing, workers: workers}
	if !eval.tryOne(sc.Events) {
		return Shrunk{}, fmt.Errorf("chaos: Shrink: scenario %s does not fail as given", sc.Name)
	}

	// Phase 1: ddmin over the event list — remove chunks, halving the chunk
	// size whenever no removal reproduces, until single-event granularity is
	// exhausted. Each pass probes every complement of the current event list
	// as one batch and restarts from the first reproducing one.
	events := sc.Events
	n := 2
	for len(events) >= 2 {
		chunk := (len(events) + n - 1) / n
		var cands [][]Event
		for start := 0; start < len(events); start += chunk {
			end := start + chunk
			if end > len(events) {
				end = len(events)
			}
			complement := make([]Event, 0, len(events)-(end-start))
			complement = append(complement, events[:start]...)
			complement = append(complement, events[end:]...)
			cands = append(cands, complement)
		}
		if idx := eval.firstFailing(cands); idx >= 0 {
			events = cands[idx]
			if n > 2 {
				n--
			}
			continue
		}
		if n >= len(events) {
			break
		}
		n *= 2
		if n > len(events) {
			n = len(events)
		}
	}

	// Phase 2: weaken each surviving event to a fixpoint — every event is
	// offered its weaker variants in order (one batch per event), and the
	// first still-failing one replaces it.
	for changed := true; changed; {
		changed = false
		for i := range events {
			variants := weaken(events[i])
			cands := make([][]Event, len(variants))
			for vi, w := range variants {
				cand := append([]Event(nil), events...)
				cand[i] = w
				cands[vi] = cand
			}
			if idx := eval.firstFailing(cands); idx >= 0 {
				events = cands[idx]
				changed = true
			}
		}
	}

	out := sc
	out.Events = events

	// Phase 3: shrink the world itself — bisect Ranks, Steps and Interval
	// down to their smallest still-failing values (floors 2/1/1). Probes are
	// inherently sequential (each bound depends on the previous verdict), so
	// this phase is byte-identical under any worker count. Candidates that no
	// longer normalize or compile (a crash rank out of range, a partition of
	// a cluster that no longer exists) are rejected without charging a
	// predicate run; every accepted value was verified failing.
	probe := func(mut func(*Scenario)) bool {
		cand := out
		mut(&cand)
		tmp := cand
		if err := tmp.normalize(); err != nil {
			return false
		}
		if _, err := compile(&tmp); err != nil {
			return false
		}
		eval.runs++
		return eval.failing(cand)
	}
	// bisect returns the smallest still-failing value in [lo, hi], given that
	// the current scenario (value hi) fails.
	bisect := func(lo, hi int, set func(*Scenario, int)) int {
		if lo >= hi {
			return hi
		}
		if probe(func(s *Scenario) { set(s, lo) }) {
			return lo
		}
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if probe(func(s *Scenario) { set(s, mid) }) {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi
	}
	norm := out
	if err := norm.normalize(); err == nil {
		setRanks := func(s *Scenario, v int) {
			s.Ranks = v
			if len(s.ClusterOf) > v {
				s.ClusterOf = s.ClusterOf[:v]
			}
		}
		if r := bisect(2, norm.Ranks, setRanks); r < norm.Ranks {
			setRanks(&out, r)
			if out.ClusterOf != nil {
				out.ClusterOf = append([]int(nil), out.ClusterOf...)
			}
		}
		if s := bisect(1, norm.Steps, func(s *Scenario, v int) { s.Steps = v }); s < norm.Steps {
			out.Steps = s
		}
		if iv := bisect(1, norm.Interval, func(s *Scenario, v int) { s.Interval = v }); iv < norm.Interval {
			out.Interval = iv
		}
	}

	return Shrunk{Scenario: out, Runs: eval.runs, Literal: FormatScenario(out)}, nil
}

// weaken returns strictly weaker variants of one event, strongest reduction
// first. An empty result means the event is already minimal.
func weaken(ev Event) []Event {
	var out []Event
	switch e := ev.(type) {
	case netDelay:
		if e.Jitter > 0 {
			w := e
			w.Jitter = 0
			out = append(out, w)
		}
		if e.Extra > 2e-6 {
			w := e
			w.Extra = e.Extra / 2
			out = append(out, w)
		}
	case netReorder:
		if e.Spread > 2e-6 {
			w := e
			w.Spread = e.Spread / 2
			out = append(out, w)
		}
		if e.Window > 2 {
			w := e
			w.Window = e.Window - 1
			out = append(out, w)
		}
	case netCrossReorder:
		if e.Window > 2 {
			w := e
			w.Window = e.Window - 1
			out = append(out, w)
		}
	case netPartition:
		if dur := e.To - e.From; dur > 100e-6 {
			w := e
			w.To = e.From + dur/2
			out = append(out, w)
		}
	case netDuring:
		for _, inner := range weaken(e.Inner) {
			w := e
			w.Inner = inner
			out = append(out, w)
		}
		if e.Duration > 100e-6 {
			w := e
			w.Duration = e.Duration / 2
			out = append(out, w)
		}
	case storageFault:
		if e.Rule.Count > 1 {
			w := e
			w.Rule.Count = e.Rule.Count - 1
			out = append(out, w)
		}
		if e.Rule.Delay > 100000 { // 100us in ns
			w := e
			w.Rule.Delay = e.Rule.Delay / 2
			out = append(out, w)
		}
		if e.Rule.After > 0 {
			w := e
			w.Rule.After = e.Rule.After / 2
			out = append(out, w)
		}
	case cascade:
		if len(e.Then) > 0 {
			w := e
			w.Then = e.Then[:len(e.Then)-1]
			out = append(out, w)
		}
	case afterCapture:
		if e.Wave > 1 {
			w := e
			w.Wave = e.Wave - 1
			out = append(out, w)
		}
	}
	return out
}

// FormatScenario renders the scenario as a compilable Go composite literal
// (package-qualified, ready to paste into a regression test).
func FormatScenario(sc Scenario) string {
	var b strings.Builder
	b.WriteString("chaos.Scenario{\n")
	fmt.Fprintf(&b, "\tName: %q,\n", sc.Name)
	if sc.Protocol != "" {
		fmt.Fprintf(&b, "\tProtocol: %q,\n", string(sc.Protocol))
	}
	if sc.Ranks != 0 {
		fmt.Fprintf(&b, "\tRanks: %d,\n", sc.Ranks)
	}
	if sc.RanksPerNode != 0 {
		fmt.Fprintf(&b, "\tRanksPerNode: %d,\n", sc.RanksPerNode)
	}
	if sc.ClusterOf != nil {
		fmt.Fprintf(&b, "\tClusterOf: %#v,\n", sc.ClusterOf)
	}
	if sc.Steps != 0 {
		fmt.Fprintf(&b, "\tSteps: %d,\n", sc.Steps)
	}
	if sc.Interval != 0 {
		fmt.Fprintf(&b, "\tInterval: %d,\n", sc.Interval)
	}
	if sc.Workload != (Workload{}) {
		fmt.Fprintf(&b, "\tWorkload: chaos.Workload{Kind: %q, Size: %d, Param: %d},\n",
			sc.Workload.Kind, sc.Workload.Size, sc.Workload.Param)
	}
	if sc.NetSeed != 0 {
		fmt.Fprintf(&b, "\tNetSeed: %d,\n", sc.NetSeed)
	}
	if sc.ExpectError {
		b.WriteString("\tExpectError: true,\n")
	}
	if sp := sc.Storage; sp != nil {
		b.WriteString("\tStorage: &chaos.StorageSpec{\n")
		if sp.Tiered {
			b.WriteString("\t\tTiered: true,\n")
		}
		if sp.HotWaves != 0 {
			fmt.Fprintf(&b, "\t\tHotWaves: %d,\n", sp.HotWaves)
		}
		if sp.Replica {
			b.WriteString("\t\tReplica: true,\n")
		}
		if len(sp.ColdFaults) > 0 {
			b.WriteString("\t\tColdFaults: []checkpoint.FaultRule{\n")
			for _, r := range sp.ColdFaults {
				fmt.Fprintf(&b, "\t\t\t%s,\n", formatRule(r))
			}
			b.WriteString("\t\t},\n")
		}
		b.WriteString("\t},\n")
	}
	b.WriteString("\tEvents: []chaos.Event{\n")
	for _, ev := range sc.Events {
		fmt.Fprintf(&b, "\t\t%s,\n", formatEvent(ev))
	}
	b.WriteString("\t},\n}")
	return b.String()
}

func formatEvent(ev Event) string {
	switch e := ev.(type) {
	case nodeCrash:
		return fmt.Sprintf("chaos.NodeCrash(%d, %d)", e.Rank, e.Iteration)
	case clusterCrash:
		return fmt.Sprintf("chaos.ClusterCrash(%d, %d)", e.Cluster, e.Iteration)
	case cascade:
		parts := make([]string, 0, len(e.Then)+1)
		parts = append(parts, formatFault(e.Initial))
		for _, f := range e.Then {
			parts = append(parts, formatFault(f))
		}
		return fmt.Sprintf("chaos.Cascade(%s)", strings.Join(parts, ", "))
	case during:
		return fmt.Sprintf("chaos.During(%s, %s)", formatPhase(e.Phase), formatFault(e.Fault))
	case storageFault:
		return fmt.Sprintf("chaos.StorageFault(%s)", formatRule(e.Rule))
	case netDelay:
		if e.From == 0 && e.To == 0 {
			return fmt.Sprintf("chaos.Delay(%d, %d, %g, %g)", e.Src, e.Dst, e.Extra, e.Jitter)
		}
		return fmt.Sprintf("chaos.DelayWindow(%d, %d, %g, %g, %g, %g)", e.Src, e.Dst, e.From, e.To, e.Extra, e.Jitter)
	case netReorder:
		return fmt.Sprintf("chaos.Reorder(%d, %d, %d, %g)", e.Src, e.Dst, e.Window, e.Spread)
	case netCrossReorder:
		return fmt.Sprintf("chaos.CrossReorder(%d, %d)", e.Dst, e.Window)
	case netPartition:
		return fmt.Sprintf("chaos.Partition(%d, %d, %g, %g)", e.ClusterA, e.ClusterB, e.From, e.To)
	case netDuring:
		return fmt.Sprintf("chaos.NetDuring(%s, %s, %g)", formatPhase(e.Phase), formatEvent(e.Inner), e.Duration)
	case afterRecovery:
		return fmt.Sprintf("chaos.AfterRecovery(%d)", e.Rank)
	case afterCapture:
		return fmt.Sprintf("chaos.AfterCapture(%d, %d)", e.Rank, e.Wave)
	default:
		return fmt.Sprintf("/* unformattable event %#v */", ev)
	}
}

func formatFault(f core.Fault) string {
	return fmt.Sprintf("core.Fault{Rank: %d, Iteration: %d}", f.Rank, f.Iteration)
}

func formatPhase(p Phase) string {
	switch p {
	case Recovery:
		return "chaos.Recovery"
	case EpochSwitch:
		return "chaos.EpochSwitch"
	case CommitDrain:
		return "chaos.CommitDrain"
	}
	return fmt.Sprintf("chaos.Phase(%q)", string(p))
}

func formatRule(r checkpoint.FaultRule) string {
	return fmt.Sprintf(
		"checkpoint.FaultRule{Op: %q, Mode: %q, Rank: %d, After: %d, Count: %d, Delay: %d * time.Nanosecond}",
		string(r.Op), string(r.Mode), r.Rank, r.After, r.Count, int64(r.Delay))
}
