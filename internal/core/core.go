// Package core is the fault-tolerance runtime of the reproduction: it
// composes the lower layers — the MPI-like runtime (internal/mpi), cluster
// partitioning (internal/clustering), checkpoint storage
// (internal/checkpoint) and the sender-based log store (internal/logstore) —
// into the family of rollback-recovery protocols the paper of Ropars et al.
// (SC'13) compares.
//
// Three types form the public surface:
//
//   - Policy makes the protocols peers of one engine. It is a partition of
//     the world into recovery groups: the members of a group checkpoint (and
//     roll back) together, and exactly the messages between groups are
//     sender-logged. NewSPBCProtocol is the paper's hybrid (one group per
//     cluster); NewCoordinatedProtocol is pure coordinated checkpointing
//     (one global group, nothing logged, full-world rollback);
//     NewFullLogProtocol is full sender-based message logging (one group per
//     rank, every message logged, single-rank rollback).
//
//   - SPBC implements mpi.Protocol, mirroring the paper's MPICH
//     modification: it stamps every message and reception request with the
//     active (pattern, iteration) identifier (Section 4.3), logs the payload
//     of every inter-group message in the sender's logstore.Store
//     (Section 4.2), and suppresses the re-transmission of already-sent
//     messages during recovery re-execution (Algorithm 1 line 7).
//
//   - Engine owns the full lifecycle of an execution: it runs one model.App
//     instance per rank behind a model.Process facade, takes coordinated
//     checkpoints per recovery group at a fixed iteration interval
//     (Algorithm 1 lines 13-15), garbage-collects remote logs covered by a
//     new checkpoint wave, injects failures from a declarative fault plan,
//     and performs group rollback plus sender-based log replay to recover.
//
// Higher layers wrap the Engine behind a declarative Scenario API
// (internal/runner) and race the protocols across benchmark matrices
// (internal/bench); application kernels live in internal/app.
package core
