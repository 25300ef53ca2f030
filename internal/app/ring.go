package app

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/mpi"
)

// Halo-exchange message tags: a rightward message carries the sender's last
// cell to its right neighbour, a leftward message the first cell to the left.
const (
	tagRightward = 1
	tagLeftward  = 2
)

// Ring is a 1-D explicit heat-diffusion stencil on a ring: every rank owns a
// block of cells, exchanges one ghost cell with each neighbour per iteration
// (non-blocking halo exchange with wildcard-source receives, disambiguated by
// tag), and periodically computes a global residual with an allreduce. The
// halo exchange is bracketed by the SPBC pattern API, which is exactly the
// kind of wildcard communication the identifier matching of Section 5.1
// exists for.
type Ring struct {
	p model.Process

	cells       int
	alpha       float64
	reduceEvery int

	u        []float64
	next     []float64
	residual float64
	pattern  uint32
}

// NewRing returns a factory for ring-stencil instances with the given number
// of cells per rank. reduceEvery sets the period (in iterations) of the
// global residual allreduce; 0 disables it.
func NewRing(cellsPerRank, reduceEvery int) model.AppFactory {
	return func() model.App {
		return &Ring{cells: cellsPerRank, alpha: 0.25, reduceEvery: reduceEvery}
	}
}

// Name identifies the kernel in reports.
func (r *Ring) Name() string { return "ring-stencil" }

// Init seeds the per-rank block deterministically and declares the halo
// communication pattern.
func (r *Ring) Init(p model.Process) error {
	if r.cells < 1 {
		return fmt.Errorf("app: ring needs at least one cell per rank, got %d", r.cells)
	}
	r.p = p
	r.u = make([]float64, r.cells)
	r.next = make([]float64, r.cells)
	for i := range r.u {
		g := float64(p.Rank()*r.cells + i)
		r.u[i] = math.Sin(0.05*g) + 0.3*math.Cos(0.11*g)
	}
	r.pattern = p.DeclarePattern()
	return nil
}

// Step performs one halo exchange plus stencil update, and every reduceEvery
// iterations a global residual reduction.
func (r *Ring) Step(iter int) error {
	p := r.p
	size := p.Size()
	left := (p.Rank() - 1 + size) % size
	right := (p.Rank() + 1) % size

	p.BeginIteration(r.pattern)
	defer p.EndIteration(r.pattern)

	sendRight := putFloat(nil, r.u[r.cells-1])
	sendLeft := putFloat(nil, r.u[0])
	ghostLeft := make([]byte, 8)
	ghostRight := make([]byte, 8)

	// Post wildcard receives first, then send both boundary cells.
	rl, err := p.Irecv(ghostLeft, mpi.AnySource, tagRightward)
	if err != nil {
		return err
	}
	rr, err := p.Irecv(ghostRight, mpi.AnySource, tagLeftward)
	if err != nil {
		return err
	}
	sr, err := p.Isend(sendRight, right, tagRightward)
	if err != nil {
		return err
	}
	sl, err := p.Isend(sendLeft, left, tagLeftward)
	if err != nil {
		return err
	}
	if err := waitAll(p, rl, rr, sr, sl); err != nil {
		return err
	}

	gl := math.Float64frombits(binary.LittleEndian.Uint64(ghostLeft))
	gr := math.Float64frombits(binary.LittleEndian.Uint64(ghostRight))

	// Explicit diffusion update; ~50ns of virtual compute per cell.
	p.Compute(float64(r.cells) * 50e-9)
	var localSq float64
	for i := 0; i < r.cells; i++ {
		l := gl
		if i > 0 {
			l = r.u[i-1]
		}
		rt := gr
		if i < r.cells-1 {
			rt = r.u[i+1]
		}
		d := r.alpha * (l - 2*r.u[i] + rt)
		r.next[i] = r.u[i] + d
		localSq += d * d
	}
	r.u, r.next = r.next, r.u

	if r.reduceEvery > 0 && (iter+1)%r.reduceEvery == 0 {
		send := []float64{localSq}
		recv := make([]float64, 1)
		if err := p.AllreduceF64(send, recv, mpi.OpSum); err != nil {
			return err
		}
		r.residual = math.Sqrt(recv[0])
	}
	return nil
}

// Snapshot serializes the mutable state of the rank.
func (r *Ring) Snapshot() ([]byte, error) {
	buf := encodeFloats(nil, r.u)
	buf = putFloat(buf, r.residual)
	return buf, nil
}

// Restore replaces the state from a snapshot.
func (r *Ring) Restore(state []byte) error {
	u, rest, err := decodeFloats(state)
	if err != nil {
		return err
	}
	res, _, err := getFloat(rest)
	if err != nil {
		return err
	}
	r.u = u
	r.next = make([]float64, len(u))
	r.residual = res
	return nil
}

// Verify digests the per-rank state: a position-weighted sum of the block
// plus the last global residual.
func (r *Ring) Verify() (float64, error) {
	sum := r.residual
	for i, v := range r.u {
		sum += v * float64(i+1)
	}
	return sum, nil
}

var _ model.App = (*Ring)(nil)
