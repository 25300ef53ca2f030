package core

import (
	"fmt"

	"repro/internal/mpi"
)

// Policy is a fault-tolerance protocol, and a protocol here is a partition:
// the paper's hybrid logs exactly the messages that cross a cluster boundary
// (Algorithm 1), and its two baselines are that rule's extremes — coordinated
// checkpointing is one cluster, full sender-based message logging is one
// cluster per process. So a Policy is nothing but a recovery-group assignment:
//
//   - who checkpoints together: the members of a group take their
//     checkpoints in one coordinated wave and roll back together when any
//     member fails;
//   - what gets logged: every message between different groups is copied
//     into the sender's log store, so it can be replayed after a failure of
//     the destination's group without rolling back the sender. Nothing else
//     is logged.
//
// The Engine supplies the shared mechanism — per-group checkpoint waves,
// sender-based logging through the mpi.Protocol hook, remote-log garbage
// collection, group rollback plus log replay — so pure coordinated
// checkpointing, full message logging and the paper's hybrid run as peers of
// one engine and are directly comparable, exactly as the paper's evaluation
// compares them. Adaptive clustering (Config.Adaptive) is the same rule over
// a sequence of partitions, one per epoch, chosen while the run executes.
type Policy struct {
	groupOf []int
}

// NewSPBCProtocol builds the paper's hybrid protocol from a cluster
// assignment, typically produced by clustering.Partition from a communication
// profile: recovery groups are the clusters, and only inter-cluster messages
// are logged. A failure rolls back exactly one cluster; messages from other
// clusters are re-delivered from the senders' logs.
func NewSPBCProtocol(clusterOf []int) *Policy {
	return &Policy{groupOf: append([]int(nil), clusterOf...)}
}

// NewCoordinatedProtocol builds pure coordinated checkpointing, the first
// baseline of the paper's comparison: the whole world is one recovery group,
// every checkpoint wave is global, nothing is ever logged, and any failure
// rolls back every rank to the last global wave.
func NewCoordinatedProtocol(ranks int) *Policy {
	return &Policy{groupOf: make([]int, ranks)}
}

// NewFullLogProtocol builds full sender-based message logging, the second
// baseline: every rank is its own recovery group, so checkpoints are
// per-process (the waves of different ranks are aligned only by the shared
// iteration interval), every message is logged at the sender, and a failure
// rolls back exactly the failed rank, which re-executes against replayed
// messages.
func NewFullLogProtocol(ranks int) *Policy {
	groupOf := make([]int, ranks)
	for r := range groupOf {
		groupOf[r] = r
	}
	return &Policy{groupOf: groupOf}
}

// EpochView is the engine's validated, immutable view of one epoch's
// partition. The engine switches epochs only at checkpoint-wave boundaries
// (the wave that opens an epoch is its recovery line); a static policy has
// only epoch 0. Per-send logging decisions are a slice lookup away (no
// allocation). Views are shared freely across goroutines.
type EpochView struct {
	epoch   int
	groupOf []int
	members [][]int     // group -> world ranks, ascending
	comms   []*mpi.Comm // group -> cluster communicator; set by the engine before publishing
}

// Epoch returns the epoch id of the view.
func (v *EpochView) Epoch() int { return v.epoch }

// GroupOf returns the group assignment. The slice is shared and must not be
// mutated.
func (v *EpochView) GroupOf() []int { return v.groupOf }

// Groups returns the number of recovery groups of the epoch.
func (v *EpochView) Groups() int { return len(v.members) }

// GroupSize returns the number of ranks in a group.
func (v *EpochView) GroupSize(g int) int { return len(v.members[g]) }

// Group returns the recovery group of a rank.
func (v *EpochView) Group(rank int) int { return v.groupOf[rank] }

// Members returns the world ranks of a group in ascending order. The slice
// is shared and must not be mutated.
func (v *EpochView) Members(g int) []int { return v.members[g] }

// Comm returns the cluster communicator of a group. The engine interns every
// group's comm once, when it creates the view, so this is a lookup: no rank
// runs a world-sized CommSplit, and no rank re-validates the membership. It
// is only valid on a view the engine has published.
func (v *EpochView) Comm(g int) *mpi.Comm { return v.comms[g] }

// Logs reports whether src→dst messages are sender-logged under this epoch:
// exactly the messages that cross a group boundary.
func (v *EpochView) Logs(src, dst int) bool { return v.groupOf[src] != v.groupOf[dst] }

// NewEpochView validates one epoch's partition and caches its groups: one
// group id per rank, non-negative and dense (every id below the group count
// names at least one rank). The caller checks the assignment's length
// against the world.
func NewEpochView(epoch int, groupOf []int) (*EpochView, error) {
	groups := 0
	for r, g := range groupOf {
		if g < 0 || g >= len(groupOf) {
			return nil, fmt.Errorf("core: epoch %d assigns rank %d to invalid group %d", epoch, r, g)
		}
		if g+1 > groups {
			groups = g + 1
		}
	}
	sizes := make([]int, groups)
	for _, g := range groupOf {
		sizes[g]++
	}
	v := &EpochView{
		epoch:   epoch,
		groupOf: append([]int(nil), groupOf...),
		members: make([][]int, groups),
	}
	for g, n := range sizes {
		if n == 0 {
			return nil, fmt.Errorf("core: epoch %d leaves group %d empty (ids must be dense)", epoch, g)
		}
		v.members[g] = make([]int, 0, n)
	}
	for r, g := range groupOf {
		v.members[g] = append(v.members[g], r)
	}
	return v, nil
}
