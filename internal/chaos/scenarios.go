package chaos

import (
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/runner"
)

// Catalog is the named scenario suite: the failure regimes the paper's
// protocol claims to survive, one scenario per file in the tests. Each entry
// is self-contained — Check(scenario) runs and verifies it.
func Catalog() []Scenario {
	return []Scenario{
		{
			// A node crash takes both ranks of one node — a correlated
			// failure inside one cluster.
			Name:         "node-crash",
			Ranks:        8,
			RanksPerNode: 2,
			ClusterOf:    []int{0, 0, 0, 0, 1, 1, 1, 1},
			Events:       []Event{NodeCrash(4, 5)},
		},
		{
			// The whole checkpoint cluster is gone at once: recovery has no
			// surviving member, every replay record comes from the other
			// cluster's sender logs.
			Name:      "cluster-crash",
			Ranks:     8,
			ClusterOf: []int{0, 0, 0, 0, 1, 1, 1, 1},
			Events:    []Event{ClusterCrash(1, 5)},
		},
		{
			// Both clusters crash at the same boundary — a whole-cluster
			// failure of the entire world, the coordinated-checkpoint worst
			// case run under SPBC.
			Name:   "world-crash",
			Events: []Event{ClusterCrash(0, 3), ClusterCrash(1, 3)},
		},
		{
			// Both clusters fail at one boundary, but cluster 1's newer wave
			// is still draining: cluster 0 restores its iteration-2 wave and
			// cluster 1 its iteration-0 wave. Cluster 0's log is then the only
			// source of the messages cluster 1 must receive again, and cluster
			// 1's re-sends that cluster 0 already holds must be suppressed.
			Name: "co-failed-clusters-mixed-lines",
			Events: []Event{
				ClusterCrash(0, 3),
				During(CommitDrain, core.Fault{Rank: 2, Iteration: 3}),
				During(CommitDrain, core.Fault{Rank: 3, Iteration: 3}),
			},
		},
		{
			// The same failure with the lines swapped: the cluster holding
			// the recovery leader restores the older wave.
			Name: "co-failed-clusters-mixed-lines-reversed",
			Events: []Event{
				During(CommitDrain, core.Fault{Rank: 0, Iteration: 3}),
				During(CommitDrain, core.Fault{Rank: 1, Iteration: 3}),
				ClusterCrash(1, 3),
			},
		},
		{
			// Three clusters fail at one boundary and restore three different
			// waves: cluster 0 its newest, cluster 1 the one before (its newest
			// stalls in staging), cluster 2 its first (its later waves are
			// held draining). Every inter-cluster channel has two rolled-back
			// ends on different lines.
			Name:      "co-failed-clusters-three-lines",
			Ranks:     6,
			ClusterOf: []int{0, 0, 1, 1, 2, 2},
			Events: []Event{
				ClusterCrash(0, 5),
				ClusterCrash(1, 5),
				StorageFault(checkpoint.FaultRule{Op: checkpoint.OpStage, Mode: checkpoint.ModeStall, Rank: 2, After: 2, Count: 1, Delay: 200 * time.Millisecond}),
				During(CommitDrain, core.Fault{Rank: 4, Iteration: 5}),
				During(CommitDrain, core.Fault{Rank: 5, Iteration: 5}),
			},
		},
		{
			// Mixed lines under full sender-based logging: two ranks fail at
			// one boundary and rank 2's newest wave stalls in staging, so it
			// restores an older wave than rank 1 while both roll back.
			Name:     "co-failed-ranks-mixed-lines-full-log",
			Protocol: runner.ProtocolFullLog,
			Events: []Event{
				NodeCrash(1, 5),
				NodeCrash(2, 5),
				StorageFault(checkpoint.FaultRule{Op: checkpoint.OpStage, Mode: checkpoint.ModeStall, Rank: 2, After: 2, Count: 1, Delay: 200 * time.Millisecond}),
			},
		},
		{
			// Mixed lines behind an epoch switch: the phase-shift kernel makes
			// the adaptive controller repartition at iteration 4, then one
			// node of each new group fails at iteration 7. Rank 2's wave at
			// iteration 6 stalls in staging, so its group restores the
			// epoch's opening wave while the other group restores iteration 6.
			Name:         "co-failed-clusters-mixed-lines-adaptive",
			Protocol:     runner.ProtocolSPBCAdaptive,
			Ranks:        8,
			RanksPerNode: 2,
			ClusterOf:    []int{0, 0, 0, 0, 1, 1, 1, 1},
			Workload:     Workload{Kind: "phase-shift"},
			Events: []Event{
				NodeCrash(0, 7),
				NodeCrash(2, 7),
				StorageFault(checkpoint.FaultRule{Op: checkpoint.OpStage, Mode: checkpoint.ModeStall, Rank: 2, After: 3, Count: 1, Delay: 200 * time.Millisecond}),
			},
		},
		{
			// A cascading failure: the second crash is armed during the
			// first one's recovery and lands in the other cluster at the
			// first failure's boundary, the instant its replay drains.
			Name:   "cascade",
			Events: []Event{Cascade(core.Fault{Rank: 2, Iteration: 5}, core.Fault{Rank: 0, Iteration: 5})},
		},
		{
			// A double fault inside one recovery group: the co-rollback peer
			// fails again mid-replay, under send suppression.
			Name: "double-fault-during-recovery",
			Events: []Event{
				NodeCrash(2, 5),
				During(Recovery, core.Fault{Rank: 3, Iteration: 5}),
			},
		},
		{
			// The adaptive controller repartitions and the fault pins onto
			// the boundary that opened the new epoch: rollback must restore
			// the epoch's opening wave, never one from the old partition.
			Name:         "epoch-switch-crash",
			Protocol:     runner.ProtocolSPBCAdaptive,
			Ranks:        8,
			RanksPerNode: 2,
			ClusterOf:    []int{0, 0, 0, 0, 1, 1, 1, 1},
			Workload:     Workload{Kind: "phase-shift"},
			Events:       []Event{During(EpochSwitch, core.Fault{Rank: 5})},
		},
		{
			// The fault lands while the failed cluster's checkpoint waves
			// are still draining: recovery must cancel them and fall back to
			// the last durable wave.
			Name:   "commit-drain-crash",
			Events: []Event{During(CommitDrain, core.Fault{Rank: 2, Iteration: 5})},
		},
		{
			// A storage fault races the rollback: the stage of a wave that
			// recovery is canceling fails. The cancellation must win — a
			// fault on a discarded wave cannot fail the run.
			Name: "storage-fault-racing-rollback",
			Events: []Event{
				During(CommitDrain, core.Fault{Rank: 2, Iteration: 5}),
				StorageFault(checkpoint.FaultRule{Op: checkpoint.OpStage, Mode: checkpoint.ModeFail, Rank: 2, After: 1, Count: 1}),
			},
		},
		{
			// Slow stable storage: every stage stalls, widening the window
			// in which faults race in-flight commits.
			Name: "storage-stall-rollback",
			Events: []Event{
				NodeCrash(2, 5),
				StorageFault(checkpoint.FaultRule{Op: checkpoint.OpStage, Mode: checkpoint.ModeStall, Rank: -1, Delay: 500 * time.Microsecond}),
			},
		},
		{
			// Silent corruption of the only durable wave, detected at load
			// time: recovery must surface the decode error, not resurrect
			// garbage state.
			Name:        "storage-corrupt-detected",
			ExpectError: true,
			Events: []Event{
				NodeCrash(2, 1),
				StorageFault(checkpoint.FaultRule{Op: checkpoint.OpStage, Mode: checkpoint.ModeCorrupt, Rank: 2, Count: 1}),
			},
		},
		{
			// Silent corruption of every frame demoted to the *primary* cold
			// location, with the hot ring disabled: recovery must detect the
			// damage while walking the cold tier and degrade to the buddy
			// replica, whose copies are intact. The run is expected to
			// survive — this is the tiered store's whole value proposition.
			Name: "cold-corruption-replica-fallback",
			Storage: &StorageSpec{
				Tiered:   true,
				HotWaves: -1,
				Replica:  true,
				ColdFaults: []checkpoint.FaultRule{
					{Op: checkpoint.OpStage, Mode: checkpoint.ModeCorrupt, Rank: -1},
				},
			},
			Events: []Event{NodeCrash(2, 5)},
		},
		{
			// The same rank fails at two different boundaries: the second
			// recovery must start from the re-captured waves of the first.
			Name:   "repeat-offender",
			Events: []Event{NodeCrash(2, 3), NodeCrash(2, 6)},
		},
		{
			// A crash under a uniformly slow, jittery fabric: every message
			// carries extra seeded latency, so recovery replay races live
			// traffic under shifted timings.
			Name: "link-delay-jitter",
			Events: []Event{
				NodeCrash(2, 5),
				Delay(-1, -1, 50e-6, 30e-6),
			},
		},
		{
			// Seeded permutations of arrival timing inside 4-message windows
			// on every channel: per-channel FIFO holds by construction, but
			// any protocol state piggybacked on arrival timing is scrambled.
			Name: "fifo-reorder-crash",
			Events: []Event{
				NodeCrash(1, 4),
				Reorder(-1, -1, 4, 100e-6),
			},
		},
		{
			// The adversarial input for wildcard matching: destinations buffer
			// arrivals and release them in a seeded cross-channel order, so
			// AnySource receives observe an interleaving unrelated to physical
			// arrival — across a crash and its replay.
			Name: "cross-channel-reorder",
			Events: []Event{
				NodeCrash(2, 5),
				CrossReorder(-1, 4),
			},
		},
		{
			// The inter-cluster links are cut early in the run and heal: the
			// stalled sends arrive as a late burst, then a crash forces replay
			// on top of the disturbed channel timings.
			Name: "intercluster-partition-heal",
			Events: []Event{
				NodeCrash(2, 5),
				Partition(0, 1, 20e-6, 120e-6),
			},
		},
		{
			// The partition opens the moment recovery starts and straddles the
			// whole rollback/replay window: replayed inter-cluster traffic is
			// injected while the direct links are cut, and the heal floods the
			// recovered rank with stalled pre-crash sends.
			Name: "partition-straddling-recovery",
			Events: []Event{
				NodeCrash(2, 5),
				NetDuring(Recovery, Partition(0, 1, 0, 0), 100e-6),
			},
		},
		{
			// The inter-cluster cut opens exactly when the adaptive controller
			// adopts a new partition, so the epoch's opening wave commits over
			// a degraded fabric while a crash pins onto the same boundary.
			Name:         "partition-straddling-epoch-switch",
			Protocol:     runner.ProtocolSPBCAdaptive,
			Ranks:        8,
			RanksPerNode: 2,
			ClusterOf:    []int{0, 0, 0, 0, 1, 1, 1, 1},
			Workload:     Workload{Kind: "phase-shift"},
			Events: []Event{
				During(EpochSwitch, core.Fault{Rank: 5}),
				NetDuring(EpochSwitch, Partition(0, 1, 0, 0), 150e-6),
			},
		},
		{
			// A delay burst gated on the commit drain: the fabric degrades
			// while a wave is between capture and durability, stretching the
			// window in which the crash races the in-flight commit.
			Name: "delay-straddling-commit-drain",
			Events: []Event{
				NodeCrash(2, 5),
				NetDuring(CommitDrain, Delay(-1, -1, 60e-6, 40e-6), 200e-6),
			},
		},
		{
			// The second failure strikes at the first checkpoint boundary
			// after recovery completes: the world is hit again just as it
			// regains a durable footing.
			Name: "chained-after-recovery",
			Events: []Event{
				NodeCrash(2, 3),
				AfterRecovery(0),
			},
		},
		{
			// The crash lands on the boundary of the second checkpoint
			// capture, while that wave is still draining through the
			// background committer: recovery must fall back to the previous
			// durable wave, never the in-flight one.
			Name:   "chained-after-capture",
			Events: []Event{AfterCapture(1, 2)},
		},
		{
			// The global-rollback baseline under a correlated double crash.
			Name:     "coordinated-cascade",
			Protocol: runner.ProtocolCoordinated,
			Events:   []Event{Cascade(core.Fault{Rank: 1, Iteration: 5}, core.Fault{Rank: 3, Iteration: 4})},
		},
		{
			// The single-rank-rollback baseline: a cascade must still roll
			// back only the crashed ranks, nobody else.
			Name:     "full-log-cascade",
			Protocol: runner.ProtocolFullLog,
			Events:   []Event{Cascade(core.Fault{Rank: 1, Iteration: 5}, core.Fault{Rank: 3, Iteration: 5})},
		},
	}
}

// ByName finds a catalog scenario.
func ByName(name string) (Scenario, bool) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
