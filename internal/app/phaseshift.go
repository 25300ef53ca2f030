package app

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Phase-shift message tags, disjoint from the ring tags so the two traffic
// regimes are distinguishable in traces.
const (
	tagHaloRight = 3
	tagHaloLeft  = 4
	tagShift     = 5
)

// PhaseShift is the adaptive-clustering stress kernel: it alternates, every
// phaseLen iterations, between two communication regimes that want opposite
// cluster partitions.
//
//   - Halo phase: a 1-D diffusion stencil on a ring — each rank exchanges one
//     boundary cell with its immediate neighbours, so contiguous clusters log
//     almost nothing and interleaved clusters log every message.
//   - Shift phase: a block rotation by half the world — each rank sends its
//     whole block to rank+size/2 (mod size) and folds the block it receives
//     into its state, so the optimal clusters pair distant ranks and any
//     contiguous partition logs 100% of the (much heavier) traffic.
//
// No static partition is right in both phases, which is exactly the workload
// the paper's communication-driven clustering cannot serve with a single
// frozen assignment: an adaptive run repartitions at the wave boundary after
// the regime changes and logs strictly less than the best static choice.
// Like the other kernels the computation is plain SPMD floating point with
// explicit-source receives, hence channel-deterministic.
type PhaseShift struct {
	p model.Process

	cells    int
	phaseLen int
	alpha    float64

	u       []float64
	next    []float64
	inbox   []float64
	haloPat uint32
	shifPat uint32
}

// NewPhaseShift returns a factory for phase-shift instances: cellsPerRank
// state cells per rank, switching regime every phaseLen iterations.
func NewPhaseShift(cellsPerRank, phaseLen int) model.AppFactory {
	return func() model.App {
		return &PhaseShift{cells: cellsPerRank, phaseLen: phaseLen, alpha: 0.25}
	}
}

// Name identifies the kernel in reports.
func (ps *PhaseShift) Name() string { return "phase-shift" }

// Init seeds the per-rank block deterministically and declares one pattern
// per communication regime.
func (ps *PhaseShift) Init(p model.Process) error {
	if ps.cells < 1 {
		return fmt.Errorf("app: phase-shift needs at least one cell per rank, got %d", ps.cells)
	}
	if ps.phaseLen < 1 {
		return fmt.Errorf("app: phase-shift needs a positive phase length, got %d", ps.phaseLen)
	}
	ps.p = p
	ps.u = make([]float64, ps.cells)
	ps.next = make([]float64, ps.cells)
	ps.inbox = make([]float64, ps.cells)
	for i := range ps.u {
		g := float64(p.Rank()*ps.cells + i)
		ps.u[i] = math.Sin(0.04*g) + 0.2*math.Cos(0.09*g)
	}
	ps.haloPat = p.DeclarePattern()
	ps.shifPat = p.DeclarePattern()
	return nil
}

// Step runs one iteration of the active regime.
func (ps *PhaseShift) Step(iter int) error {
	if (iter/ps.phaseLen)%2 == 0 {
		return ps.haloStep()
	}
	return ps.shiftStep()
}

// haloStep is the ring regime: exchange one ghost cell with each neighbour
// (explicit sources) and apply the diffusion update.
func (ps *PhaseShift) haloStep() error {
	p := ps.p
	size := p.Size()
	left := (p.Rank() - 1 + size) % size
	right := (p.Rank() + 1) % size

	p.BeginIteration(ps.haloPat)
	defer p.EndIteration(ps.haloPat)

	gl, gr := ps.u[0], ps.u[ps.cells-1]
	if size > 1 {
		ghostLeft := make([]byte, 8)
		ghostRight := make([]byte, 8)
		rl, err := p.Irecv(ghostLeft, left, tagHaloRight)
		if err != nil {
			return err
		}
		rr, err := p.Irecv(ghostRight, right, tagHaloLeft)
		if err != nil {
			return err
		}
		sr, err := p.Isend(putFloat(nil, ps.u[ps.cells-1]), right, tagHaloRight)
		if err != nil {
			return err
		}
		sl, err := p.Isend(putFloat(nil, ps.u[0]), left, tagHaloLeft)
		if err != nil {
			return err
		}
		if err := waitAll(p, rl, rr, sr, sl); err != nil {
			return err
		}
		var rest []byte
		if gl, rest, err = getFloat(ghostLeft); err != nil || len(rest) != 0 {
			return fmt.Errorf("app: phase-shift ghost decode: %v", err)
		}
		if gr, rest, err = getFloat(ghostRight); err != nil || len(rest) != 0 {
			return fmt.Errorf("app: phase-shift ghost decode: %v", err)
		}
	}

	p.Compute(float64(ps.cells) * 50e-9)
	for i := 0; i < ps.cells; i++ {
		l := gl
		if i > 0 {
			l = ps.u[i-1]
		}
		r := gr
		if i < ps.cells-1 {
			r = ps.u[i+1]
		}
		ps.next[i] = ps.u[i] + ps.alpha*(l-2*ps.u[i]+r)
	}
	ps.u, ps.next = ps.next, ps.u
	return nil
}

// shiftStep is the rotation regime: send the whole block to the rank half
// the world away, receive the block rotated in, and fold it into the state.
func (ps *PhaseShift) shiftStep() error {
	p := ps.p
	size := p.Size()
	half := size / 2
	if half == 0 {
		return nil // single rank: the regime has no partner
	}
	to := (p.Rank() + half) % size
	from := (p.Rank() - half + size) % size

	p.BeginIteration(ps.shifPat)
	defer p.EndIteration(ps.shifPat)

	recvBuf := make([]byte, 8*ps.cells+8) // length prefix + cells
	rr, err := p.Irecv(recvBuf, from, tagShift)
	if err != nil {
		return err
	}
	sr, err := p.Isend(encodeFloats(nil, ps.u), to, tagShift)
	if err != nil {
		return err
	}
	if err := waitAll(p, rr, sr); err != nil {
		return err
	}
	in, _, err := decodeFloats(recvBuf)
	if err != nil {
		return err
	}
	copy(ps.inbox, in)

	p.Compute(float64(ps.cells) * 40e-9)
	for i := 0; i < ps.cells; i++ {
		ps.u[i] = 0.5*ps.u[i] + 0.5*ps.inbox[i]
	}
	return nil
}

// Snapshot serializes the mutable state of the rank.
func (ps *PhaseShift) Snapshot() ([]byte, error) {
	return encodeFloats(nil, ps.u), nil
}

// Restore replaces the state from a snapshot.
func (ps *PhaseShift) Restore(state []byte) error {
	u, _, err := decodeFloats(state)
	if err != nil {
		return err
	}
	ps.u = u
	ps.next = make([]float64, len(u))
	ps.inbox = make([]float64, len(u))
	return nil
}

// Verify digests the per-rank state with a position-weighted sum.
func (ps *PhaseShift) Verify() (float64, error) {
	var sum float64
	for i, v := range ps.u {
		sum += v * float64(i+1)
	}
	return sum, nil
}

var _ model.App = (*PhaseShift)(nil)
