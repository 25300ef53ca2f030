// Package model defines the interfaces shared by the workload kernels and
// the checkpointing runtimes: Process is the communication API an application
// programs against (a subset of MPI — point-to-point with blocking
// completion, a blocking probe and the collectives — plus the SPBC pattern
// API of Section 5.1), and App is the iterative-application contract the
// runtimes drive (initialize, step, checkpoint, restore, verify).
//
// Both the core engine (internal/core, under any of its fault-tolerance
// policies: SPBC, pure coordinated checkpointing, full message logging) and
// the NativeProcess adapter below implement Process, so the same application
// kernels (internal/app) run unchanged under every protocol, exactly as the
// paper runs the same binaries under modified and unmodified MPICH.
package model

import "repro/internal/mpi"

// Process is the communication interface offered to applications. All
// point-to-point and collective operations act on the world communicator.
//
// Requests complete only through the blocking Wait family: there is no
// non-blocking completion test, probe or clock read, because no kernel
// polls (every kernel completes its requests inside the step that posted
// them). The kernels in internal/app call Rank, Size, Compute, Isend, Irecv,
// Wait, AllreduceF64 and the pattern API; the other methods are the blocking
// calls and collectives that the benchmark module's tracing decorator times
// through this interface, so they stay while it wraps them.
type Process interface {
	// Rank returns the world rank of the process.
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Compute advances the process's virtual time by the given computation
	// duration in seconds.
	Compute(seconds float64)

	// Send performs a blocking send to dest with the given tag.
	Send(buf []byte, dest, tag int) error
	// Recv performs a blocking receive from src (or mpi.AnySource).
	Recv(buf []byte, src, tag int) (mpi.Status, error)
	// Isend starts a non-blocking send.
	Isend(buf []byte, dest, tag int) (*mpi.Request, error)
	// Irecv posts a non-blocking receive.
	Irecv(buf []byte, src, tag int) (*mpi.Request, error)
	// Wait blocks until the request completes.
	Wait(req *mpi.Request) (mpi.Status, error)
	// Waitall waits for all requests.
	Waitall(reqs []*mpi.Request) ([]mpi.Status, error)
	// Waitany waits for any of the requests to complete.
	Waitany(reqs []*mpi.Request) (int, mpi.Status, error)
	// Probe blocks until a matching message is available.
	Probe(src, tag int) (mpi.Status, error)

	// Barrier blocks until all ranks reach it.
	Barrier() error
	// AllreduceF64 reduces send element-wise across ranks into recv on every rank.
	AllreduceF64(send, recv []float64, op mpi.Op) error
	// ReduceF64 reduces to the root rank only.
	ReduceF64(send, recv []float64, op mpi.Op, root int) error
	// BcastBytes broadcasts buf from root.
	BcastBytes(buf []byte, root int) error
	// AllgatherF64 gathers one slice per rank, concatenated in rank order.
	AllgatherF64(send []float64) ([]float64, error)
	// AllgatherBytes gathers one byte block per rank.
	AllgatherBytes(send []byte) ([]byte, error)
	// AlltoallBytes exchanges fixed-size blocks between all pairs.
	AlltoallBytes(send []byte, blockLen int) ([]byte, error)

	// DeclarePattern allocates a new communication-pattern identifier
	// (SPBC API, Section 5.1). Runtimes without identifier matching return 0.
	DeclarePattern() uint32
	// BeginIteration makes the pattern active and increments its iteration.
	BeginIteration(pattern uint32)
	// EndIteration restores the default communication pattern.
	EndIteration(pattern uint32)
}

// App is an iterative SPMD application driven by a checkpointing runtime.
// Implementations must be deterministic: given the same initial state and the
// same delivered message contents, Step produces the same sends (the
// channel-determinism property of Section 3.4).
type App interface {
	// Name returns a short identifier (used in reports).
	Name() string
	// Init prepares the per-rank state and may communicate.
	Init(p Process) error
	// Step executes one iteration (0-based). It must leave no pending
	// requests behind: checkpoints are taken between steps.
	Step(iter int) error
	// Snapshot serializes the application state for a checkpoint.
	Snapshot() ([]byte, error)
	// Restore replaces the application state from a checkpoint.
	Restore(state []byte) error
	// Verify returns a scalar digest of the application state (residual,
	// checksum, ...) used to compare runs with and without failures.
	Verify() (float64, error)
}

// AppFactory creates a fresh application instance for one rank.
type AppFactory func() App

// NativeProcess adapts a bare mpi.Proc to the Process interface: it is the
// "unmodified MPICH" baseline of the paper's evaluation. The pattern API is a
// no-op and nothing is logged.
type NativeProcess struct {
	P *mpi.Proc
}

// NewNativeProcess wraps an mpi.Proc.
func NewNativeProcess(p *mpi.Proc) *NativeProcess { return &NativeProcess{P: p} }

// Rank returns the world rank.
func (n *NativeProcess) Rank() int { return n.P.Rank() }

// Size returns the world size.
func (n *NativeProcess) Size() int { return n.P.Size() }

// Compute advances virtual time.
func (n *NativeProcess) Compute(seconds float64) { n.P.Compute(seconds) }

// Send performs a blocking send on the world communicator.
func (n *NativeProcess) Send(buf []byte, dest, tag int) error { return n.P.Send(buf, dest, tag, nil) }

// Recv performs a blocking receive on the world communicator.
func (n *NativeProcess) Recv(buf []byte, src, tag int) (mpi.Status, error) {
	return n.P.Recv(buf, src, tag, nil)
}

// Isend starts a non-blocking send.
func (n *NativeProcess) Isend(buf []byte, dest, tag int) (*mpi.Request, error) {
	return n.P.Isend(buf, dest, tag, nil)
}

// Irecv posts a non-blocking receive.
func (n *NativeProcess) Irecv(buf []byte, src, tag int) (*mpi.Request, error) {
	return n.P.Irecv(buf, src, tag, nil)
}

// Wait blocks until the request completes.
func (n *NativeProcess) Wait(req *mpi.Request) (mpi.Status, error) { return n.P.Wait(req) }

// Waitall waits for all requests.
func (n *NativeProcess) Waitall(reqs []*mpi.Request) ([]mpi.Status, error) { return n.P.Waitall(reqs) }

// Waitany waits for any request.
func (n *NativeProcess) Waitany(reqs []*mpi.Request) (int, mpi.Status, error) {
	return n.P.Waitany(reqs)
}

// Probe blocks until a matching message is available.
func (n *NativeProcess) Probe(src, tag int) (mpi.Status, error) { return n.P.Probe(src, tag, nil) }

// Barrier blocks until all ranks arrive.
func (n *NativeProcess) Barrier() error { return n.P.Barrier(nil) }

// AllreduceF64 reduces across all ranks.
func (n *NativeProcess) AllreduceF64(send, recv []float64, op mpi.Op) error {
	return n.P.AllreduceF64(send, recv, op, nil)
}

// ReduceF64 reduces to the root.
func (n *NativeProcess) ReduceF64(send, recv []float64, op mpi.Op, root int) error {
	return n.P.ReduceF64(send, recv, op, root, nil)
}

// BcastBytes broadcasts from the root.
func (n *NativeProcess) BcastBytes(buf []byte, root int) error { return n.P.BcastBytes(buf, root, nil) }

// AllgatherF64 gathers float64 slices from all ranks.
func (n *NativeProcess) AllgatherF64(send []float64) ([]float64, error) {
	return n.P.AllgatherF64(send, nil)
}

// AllgatherBytes gathers byte blocks from all ranks.
func (n *NativeProcess) AllgatherBytes(send []byte) ([]byte, error) {
	return n.P.AllgatherBytes(send, nil)
}

// AlltoallBytes exchanges blocks between all pairs.
func (n *NativeProcess) AlltoallBytes(send []byte, blockLen int) ([]byte, error) {
	return n.P.AlltoallBytes(send, blockLen, nil)
}

// DeclarePattern is a no-op for the native baseline.
func (n *NativeProcess) DeclarePattern() uint32 { return 0 }

// BeginIteration is a no-op for the native baseline.
func (n *NativeProcess) BeginIteration(uint32) {}

// EndIteration is a no-op for the native baseline.
func (n *NativeProcess) EndIteration(uint32) {}

var _ Process = (*NativeProcess)(nil)
