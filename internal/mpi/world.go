package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/simnet"
	"repro/internal/trace"
)

// World is a set of ranks (processes) that can communicate. It owns the cost
// model, the communicator registry and the optional trace recorder.
type World struct {
	size  int
	cost  simnet.CostModel
	procs []*Proc
	rec   *trace.Recorder
	// net is the optional network-chaos model; immutable after NewWorld, read
	// lock-free on the send path.
	net *simnet.NetChaos

	commMu    sync.Mutex
	comms     map[string]*Comm // interned by membership signature
	nextComm  int
	worldComm *Comm

	// stopped is checked on every isend/irecv/wait iteration of every rank —
	// a mutex here is a world-global contention point at 10k+ goroutines, so
	// it is a plain atomic flag.
	stopped atomic.Bool

	// sched is the wake scheduler of the Run in progress, nil outside Run.
	// Read lock-free on every notify.
	sched atomic.Pointer[scheduler]
}

// Option configures a World.
type Option func(*World)

// WithRecorder attaches a trace recorder; every send and deliver event is
// recorded, which enables the determinism checkers.
func WithRecorder(r *trace.Recorder) Option {
	return func(w *World) { w.rec = r }
}

// WithNetChaos attaches a network-chaos model: transmitted messages suffer
// the model's seeded delays, reorder windows, destination hold buffers and
// link partitions. Perturbations are virtual-time only and never change
// message content or per-channel FIFO order. The model is validated by
// NewWorld.
func WithNetChaos(n *simnet.NetChaos) Option {
	return func(w *World) { w.net = n }
}

// NewWorld creates a world of n ranks with the given cost model.
func NewWorld(n int, cost simnet.CostModel, opts ...Option) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", n)
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		size:  n,
		cost:  cost,
		comms: make(map[string]*Comm),
	}
	for _, o := range opts {
		o(w)
	}
	if err := w.net.Validate(n); err != nil {
		return nil, err
	}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	w.worldComm = w.internComm(group)
	w.procs = make([]*Proc, n)
	// Per-rank construction is independent (maps, scratch, clock state), so
	// build the world in parallel chunks: at 65k+ ranks a serial loop over
	// newProc dominates cell setup time in the scale sweep.
	ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w.procs[i] = newProc(w, i)
		}
	})
	return w, nil
}

// ParallelFor splits [0, n) into contiguous chunks and runs fn on each
// from a bounded set of workers. fn must be independent across chunks. It
// is exported for world-sized per-rank construction loops elsewhere in the
// runtime (the engine's protocol array, bench cell setup): at 65k ranks
// those serial loops, not the measured run, dominate cell wall time.
func ParallelFor(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	const minChunk = 64 // below this, goroutine overhead beats the win
	if chunks := (n + minChunk - 1) / minChunk; workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	block := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Cost returns the cost model of the world.
func (w *World) Cost() simnet.CostModel { return w.cost }

// Proc returns the process handle of the given world rank.
func (w *World) Proc(rank int) *Proc {
	if rank < 0 || rank >= w.size {
		return nil
	}
	return w.procs[rank]
}

// CommWorld returns the world communicator.
func (w *World) CommWorld() *Comm { return w.worldComm }

// Recorder returns the attached trace recorder, if any.
func (w *World) Recorder() *trace.Recorder { return w.rec }

// Stopped reports whether the world has been aborted.
func (w *World) Stopped() bool {
	return w.stopped.Load()
}

// Abort marks the world as stopped and wakes every blocked process so the
// run can terminate with ErrWorldStopped instead of hanging. The caller's
// cost is O(shards) — one abort token per mailbox — and the world-sized wake
// sweep runs on the shard loops. Outside Run no rank is parked, so setting
// the flag is all there is to do.
func (w *World) Abort() {
	w.stopped.Store(true)
	if s := w.sched.Load(); s != nil {
		s.abort()
	}
}

// Run executes fn on every rank concurrently (one goroutine per rank, woken
// through the shard scheduler installed for the duration of the call) and
// waits for all of them to return. When any rank fails, the world is aborted
// so blocked ranks do not hang; the aborted ranks then fail with errors
// wrapping ErrWorldStopped. Run prefers the primary failure: the first error
// (by rank) that is not such a secondary abort reaction, falling back to the
// first error of any kind.
func (w *World) Run(fn func(p *Proc) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	wg.Add(w.size)
	body := func(rank int) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, r)
				w.Abort()
			}
		}()
		if err := fn(w.procs[rank]); err != nil {
			errs[rank] = fmt.Errorf("mpi: rank %d: %w", rank, err)
			w.Abort()
		}
	}
	s := newScheduler(w)
	w.sched.Store(s)
	s.start(body)
	wg.Wait()
	s.stop()
	w.sched.Store(nil)
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, ErrWorldStopped) {
			return err
		}
	}
	return first
}

// MaxTime returns the maximum virtual clock across all ranks, i.e. the
// virtual makespan of the execution so far.
func (w *World) MaxTime() float64 {
	max := 0.0
	for _, p := range w.procs {
		if t := p.Now(); t > max {
			max = t
		}
	}
	return max
}

// internComm returns the communicator for the given membership (world ranks,
// in comm-rank order), creating it on first use.
func (w *World) internComm(group []int) *Comm {
	w.commMu.Lock()
	defer w.commMu.Unlock()
	sig := groupSignature(group)
	if c, ok := w.comms[sig]; ok {
		return c
	}
	c := &Comm{
		world: w,
		id:    w.nextComm,
		group: append([]int(nil), group...),
		index: make(map[int]int, len(group)),
	}
	for i, r := range group {
		c.index[r] = i
	}
	w.nextComm++
	w.comms[sig] = c
	return c
}

// groupSignature is the interning key for a membership list: a varint byte
// encoding rather than fmt.Sprint, so interning a large group costs a few
// bytes per member instead of a decimal render of the whole slice.
func groupSignature(group []int) string {
	b := make([]byte, 0, 3*len(group)+4)
	b = binary.AppendUvarint(b, uint64(len(group)))
	for _, r := range group {
		b = binary.AppendUvarint(b, uint64(r))
	}
	return string(b)
}

// InternComm returns the communicator with exactly the given membership
// (world ranks, in comm-rank order), creating it on first use. It is how
// sub-communicators are made: the caller already knows the full membership
// on every rank, so no rank exchanges anything — the engine interns each
// recovery group's comm this way once per group per epoch, when it creates
// the epoch view, instead of paying a world-sized allgather per rank; ranks
// then read the comm from the view. Validation and the signature cost O(len(group)), so
// callers on a per-rank or per-message path should keep the returned comm
// rather than intern it again. Membership must be non-empty, in-range and
// duplicate-free.
func (w *World) InternComm(group []int) (*Comm, error) {
	if len(group) == 0 {
		return nil, fmt.Errorf("mpi: InternComm with empty membership")
	}
	seen := make(map[int]bool, len(group))
	for _, r := range group {
		if r < 0 || r >= w.size {
			return nil, fmt.Errorf("mpi: InternComm rank %d out of range [0,%d)", r, w.size)
		}
		if seen[r] {
			return nil, fmt.Errorf("mpi: InternComm duplicate rank %d", r)
		}
		seen[r] = true
	}
	return w.internComm(group), nil
}

// Comm is a communicator: an ordered subset of world ranks with its own
// channel context. Channels are defined per communicator (Section 3.2 of the
// paper), so the same pair of processes has independent sequence numbers in
// different communicators.
type Comm struct {
	world *World
	id    int
	group []int
	index map[int]int
}

// ID returns the communicator identifier.
func (c *Comm) ID() int { return c.id }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank translates a comm-relative rank to a world rank. It returns -1
// for out-of-range ranks.
func (c *Comm) WorldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.group) {
		return -1
	}
	return c.group[commRank]
}

// CommRank translates a world rank to a comm-relative rank, or -1 if the
// rank is not a member.
func (c *Comm) CommRank(worldRank int) int {
	if r, ok := c.index[worldRank]; ok {
		return r
	}
	return -1
}

// Members returns the world ranks of the communicator in comm-rank order.
func (c *Comm) Members() []int {
	return append([]int(nil), c.group...)
}
