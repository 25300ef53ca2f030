// Package checkpoint provides the checkpoint representation and the stable
// storage abstraction used by the coordinated-checkpointing part of SPBC
// (Algorithm 1, lines 13–15: "Execute Coordinate Protocol inside cluster_i;
// Save (State_i, Logs_i) on stable storage").
//
// A checkpoint of a rank bundles the application state (an opaque byte
// slice produced by the application's Snapshot method), the MPI-level
// channel state (sequence counters, reception bookkeeping and undelivered
// messages) and the sender-based message log. Checkpoints exist in two
// forms:
//
//   - Capture form: produced under the checkpoint barrier. Payload slices
//     alias the runtime's pooled buffers (internal/buf) that the capture
//     retained — building it costs O(metadata), no payload is copied. The
//     holder releases the references with ReleaseShared once the checkpoint
//     is durably encoded.
//   - Materialized form: produced by Decode. Every payload is an independent
//     heap copy whose lifetime is decoupled from the buffer pool.
//
// Both forms encode to the same binary image (codec.go). Two storage
// back-ends are provided: an in-memory store that keeps the immutable
// encoded image per rank (used by the benchmarks, which follow the paper in
// excluding checkpoint I/O from the measurements) and TieredStorage
// (tiered.go), which keeps recent waves in memory and demotes older ones to
// a ColdStore, in memory or on disk (DirColdStore). Both support two-phase
// saves (StageImage): an expensive stage step that makes the image durable
// without publishing it, and a cheap commit step that atomically makes it
// the rank's latest checkpoint — the hook the engine uses to publish whole
// waves atomically and to discard waves a failure interrupted.
package checkpoint

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/buf"
	"repro/internal/mpi"
)

// LogRecord mirrors logstore.Record in a self-contained form so the
// checkpoint package does not depend on the log store implementation.
type LogRecord struct {
	Env      mpi.Envelope
	Payload  []byte
	SendTime float64
}

// Checkpoint is the saved state of one rank.
type Checkpoint struct {
	Rank      int
	Cluster   int
	Iteration int // application iteration at which the checkpoint was taken
	// Epoch is the policy epoch the checkpoint was captured under: the
	// version of the recovery-group partition active at the wave. Recovery
	// rolls back and replays under this epoch's view.
	Epoch int
	// Wave is the checkpoint wave number within the cluster (the rank's
	// wave counter at capture time).
	Wave     int
	Time     float64 // virtual time of the rank when the checkpoint was taken
	AppState []byte
	Channels *mpi.ChannelSnapshot
	Logs     []LogRecord
	// Protocol is the opaque per-rank state of the checkpointing protocol
	// itself (for SPBC: the pattern-iteration counters of Section 5.1). It
	// must be rolled back with the application so that re-executed sends and
	// receives are stamped with the same identifiers as the logged messages.
	Protocol []byte

	// retained backs a capture-form checkpoint: the pooled-buffer references
	// whose storage the Logs and Channels payload slices alias. nil for a
	// materialized checkpoint.
	retained []*buf.Buffer
}

// HoldShared records the pooled-buffer references backing this checkpoint's
// payload slices. The checkpoint takes over the caller's references; they are
// dropped by ReleaseShared.
func (c *Checkpoint) HoldShared(refs []*buf.Buffer) {
	c.retained = append(c.retained, refs...)
}

// ReleaseShared drops the pooled-buffer references of a capture-form
// checkpoint. The payload slices of Logs and Channels.Queued must not be
// used afterwards. Safe to call on a materialized checkpoint (no-op).
func (c *Checkpoint) ReleaseShared() {
	for _, b := range c.retained {
		b.Release()
	}
	c.retained = nil
}

// Shared reports whether the checkpoint is in capture form (payloads alias
// retained pooled buffers).
func (c *Checkpoint) Shared() bool { return len(c.retained) > 0 }

// Validate performs basic sanity checks on a checkpoint.
func (c *Checkpoint) Validate() error {
	if c == nil {
		return fmt.Errorf("checkpoint: nil checkpoint")
	}
	if c.Rank < 0 {
		return fmt.Errorf("checkpoint: negative rank %d", c.Rank)
	}
	if c.Channels == nil {
		return fmt.Errorf("checkpoint: rank %d: missing channel snapshot", c.Rank)
	}
	if c.Iteration < 0 || c.Epoch < 0 || c.Wave < 0 {
		return fmt.Errorf("checkpoint: rank %d: negative iteration, epoch or wave", c.Rank)
	}
	return nil
}

// Size returns the approximate size in bytes of the checkpoint content
// (application state, queued messages and logs).
func (c *Checkpoint) Size() uint64 {
	var s uint64
	s += uint64(len(c.AppState))
	if c.Channels != nil {
		for _, q := range c.Channels.Queued {
			s += uint64(len(q.Payload))
		}
	}
	for _, r := range c.Logs {
		s += uint64(len(r.Payload))
	}
	return s
}

// Storage is the stable-storage abstraction: it keeps the latest checkpoint
// of every rank.
type Storage interface {
	// Save stores a checkpoint, replacing any previous checkpoint of the
	// same rank.
	Save(cp *Checkpoint) error
	// Load returns the latest checkpoint of a rank, or ok=false if none.
	Load(rank int) (cp *Checkpoint, ok bool, err error)
	// Ranks lists the ranks that currently have a checkpoint.
	Ranks() ([]int, error)
}

// WaveStorage is the two-phase save interface used by the engine's
// background committer: StageImage makes the encoded checkpoint image
// durable without publishing it; the returned commit publishes it as the
// rank's latest checkpoint (cheap — a rename or a pointer swap — so a whole
// wave can be published atomically under one lock), and abort discards the
// staged image. Exactly one of commit and abort must be called.
type WaveStorage interface {
	Storage
	StageImage(rank int, image *buf.Buffer) (commit func() error, abort func(), err error)
}

// MemoryStorage keeps the latest encoded checkpoint image of every rank in
// memory. It is safe for concurrent use; saves of different ranks do not
// contend beyond the brief pointer swap.
type MemoryStorage struct {
	mu    sync.Mutex
	byRnk map[int]*buf.Buffer // immutable encoded image per rank, retained
	saves int
}

// NewMemoryStorage creates an empty in-memory store.
func NewMemoryStorage() *MemoryStorage {
	return &MemoryStorage{byRnk: make(map[int]*buf.Buffer)}
}

// publish installs an image as the rank's latest checkpoint, taking over the
// caller's reference and releasing the previous image.
func (m *MemoryStorage) publish(rank int, image *buf.Buffer) {
	m.mu.Lock()
	prev := m.byRnk[rank]
	m.byRnk[rank] = image
	m.saves++
	m.mu.Unlock()
	if prev != nil {
		prev.Release()
	}
}

// Save encodes the checkpoint once and stores the immutable image.
func (m *MemoryStorage) Save(cp *Checkpoint) error {
	if err := cp.Validate(); err != nil {
		return err
	}
	image, err := EncodeBuffer(cp)
	if err != nil {
		return err
	}
	m.publish(cp.Rank, image)
	return nil
}

// StageImage implements WaveStorage: the image is retained immediately (it is
// already durable — this is the in-memory model of stable storage), commit
// publishes it with a pointer swap, abort drops the reference.
func (m *MemoryStorage) StageImage(rank int, image *buf.Buffer) (func() error, func(), error) {
	staged := image.Retain()
	commit := func() error {
		m.publish(rank, staged)
		return nil
	}
	abort := func() { staged.Release() }
	return commit, abort, nil
}

// Load decodes the rank's latest image into a fresh, independent checkpoint:
// the encoded image is shared, never the decoded structures, so mutating a
// loaded checkpoint cannot corrupt the store.
func (m *MemoryStorage) Load(rank int) (*Checkpoint, bool, error) {
	m.mu.Lock()
	image := m.byRnk[rank]
	if image != nil {
		// Hold the image across the decode: a concurrent Save replacing it
		// must not recycle the storage under the decoder.
		image.Retain()
	}
	m.mu.Unlock()
	if image == nil {
		return nil, false, nil
	}
	cp, err := Decode(image.Bytes())
	image.Release()
	if err != nil {
		return nil, false, err
	}
	return cp, true, nil
}

// Ranks lists ranks with a stored checkpoint, sorted.
func (m *MemoryStorage) Ranks() ([]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.byRnk))
	for r := range m.byRnk {
		out = append(out, r)
	}
	sort.Ints(out)
	return out, nil
}

// Saves returns the number of checkpoints published (Save calls plus
// committed stages).
func (m *MemoryStorage) Saves() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
}

var (
	_ Storage     = (*MemoryStorage)(nil)
	_ WaveStorage = (*MemoryStorage)(nil)
)
