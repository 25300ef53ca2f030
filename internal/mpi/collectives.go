package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file implements the collective operations on top of point-to-point
// communication, which is the assumption the paper makes (Section 3.2:
// "unless hardware-specific information is provided, we assume that
// collective operations are implemented on top of point-to-point
// communication"). Because collectives reduce to point-to-point messages,
// SPBC's sender-based logging and identifier matching apply to them without
// any special handling.
//
// Algorithms: dissemination barrier, binomial-tree broadcast, reduce and
// gather, Bruck allgather, recursive-doubling scan, allreduce via
// reduce+broadcast, linear scatter and pairwise alltoall. Everything except
// scatter and alltoall is O(log n) in rounds — at 10k+ ranks an O(n)-step
// ring or linear chain dominates both the simulated makespan and the host
// time, so the log-round algorithms are what makes world-sized collectives
// (CommSplit's membership exchange, the clustering profile allgather)
// affordable at scale. Each collective call consumes one slot of the
// per-communicator collective sequence so that tags of distinct collective
// invocations never collide.

// collScratch is a rank's working storage for collectives. Collectives run
// one at a time on the rank's own goroutine, so one set suffices and the
// per-call allocations go away — at 10k+ ranks every barrier used to
// allocate 2·n tiny buffers, and every reduction its working vectors.
type collScratch struct {
	bar   [2]byte   // Barrier tokens: byte 0 outgoing, byte 1 incoming
	f64   []float64 // ReduceF64/ScanF64 working vectors
	bytes []byte    // float64 collectives' wire buffers
}

// scratch returns the rank's collective scratch, allocating it on first use.
func (p *Proc) scratch() *collScratch {
	if p.coll == nil {
		p.coll = &collScratch{}
	}
	return p.coll
}

// nextCollTag reserves a tag block for one collective invocation on comm.
// Every member calls the same collectives in the same order (SPMD), so the
// per-communicator counters stay aligned across ranks.
func (p *Proc) nextCollTag(comm *Comm) int {
	p.mu.Lock()
	seq := p.collSeq[comm.id]
	p.collSeq[comm.id] = seq + 1
	p.mu.Unlock()
	// 16 sub-tags per invocation, wrapping well below the int range.
	return collTagBase + int(seq%(1<<20))*16
}

// me returns the comm-relative rank of the process in comm.
func (p *Proc) me(comm *Comm) (int, error) {
	r := comm.CommRank(p.id)
	if r < 0 {
		return -1, fmt.Errorf("mpi: rank %d is not a member of communicator %d", p.id, comm.id)
	}
	return r, nil
}

// sendColl sends a collective fragment to a comm-relative rank.
func (p *Proc) sendColl(buf []byte, dest, tag int, comm *Comm) error {
	dstWorld := comm.WorldRank(dest)
	if dstWorld < 0 {
		return fmt.Errorf("mpi: collective destination %d out of range", dest)
	}
	req, err := p.isend(buf, dstWorld, tag, comm)
	if err != nil {
		return err
	}
	return p.waitColl(req)
}

// recvColl receives a collective fragment from a comm-relative rank.
func (p *Proc) recvColl(buf []byte, src, tag int, comm *Comm) error {
	srcWorld := comm.WorldRank(src)
	if srcWorld < 0 {
		return fmt.Errorf("mpi: collective source %d out of range", src)
	}
	req, err := p.irecv(buf, srcWorld, tag, comm)
	if err != nil {
		return err
	}
	return p.waitColl(req)
}

// Barrier blocks until every member of comm has entered the barrier,
// using the dissemination algorithm (log2(n) rounds).
func (p *Proc) Barrier(comm *Comm) error {
	if comm == nil {
		comm = p.world.worldComm
	}
	me, err := p.me(comm)
	if err != nil {
		return err
	}
	n := comm.Size()
	if n == 1 {
		return nil
	}
	tag := p.nextCollTag(comm)
	s := p.scratch()
	s.bar[0] = 1
	token := s.bar[0:1]
	buf := s.bar[1:2]
	for dist := 1; dist < n; dist *= 2 {
		to := (me + dist) % n
		from := (me - dist + n) % n
		rreq, err := p.irecv(buf, comm.WorldRank(from), tag, comm)
		if err != nil {
			return err
		}
		if err := p.sendColl(token, to, tag, comm); err != nil {
			return err
		}
		if err := p.waitColl(rreq); err != nil {
			return err
		}
	}
	return nil
}

// BcastBytes broadcasts buf from root (comm-relative) to every member of
// comm using a binomial tree. Every rank must pass a buffer of the same
// length; non-root buffers are overwritten.
func (p *Proc) BcastBytes(buf []byte, root int, comm *Comm) error {
	if comm == nil {
		comm = p.world.worldComm
	}
	me, err := p.me(comm)
	if err != nil {
		return err
	}
	n := comm.Size()
	if n == 1 {
		return nil
	}
	tag := p.nextCollTag(comm)
	// Rotate so the root is virtual rank 0.
	vrank := (me - root + n) % n
	// Receive from parent.
	if vrank != 0 {
		mask := 1
		for mask < n {
			if vrank&mask != 0 {
				parent := ((vrank - mask) + root) % n
				if err := p.recvColl(buf, parent, tag, comm); err != nil {
					return err
				}
				break
			}
			mask <<= 1
		}
	}
	// Forward to children.
	mask := 1
	for mask < n {
		if vrank&(mask-1) == 0 && vrank&mask == 0 {
			child := vrank + mask
			if child < n {
				dest := (child + root) % n
				if err := p.sendColl(buf, dest, tag, comm); err != nil {
					return err
				}
			}
		}
		mask <<= 1
	}
	return nil
}

// encodeF64 and decodeF64 convert float64 slices to byte payloads. encodeF64
// writes into dst, which must hold 8·len(vals) bytes, and returns that prefix.
func encodeF64(dst []byte, vals []float64) []byte {
	dst = dst[:8*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
	return dst
}

func decodeF64(buf []byte, out []float64) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}

// f64Work returns the rank's float64 scratch, sized n.
func (p *Proc) f64Work(n int) []float64 {
	s := p.scratch()
	if cap(s.f64) < n {
		s.f64 = make([]float64, n)
	}
	return s.f64[:n]
}

// byteWork returns the rank's byte scratch, sized n.
func (p *Proc) byteWork(n int) []byte {
	s := p.scratch()
	if cap(s.bytes) < n {
		s.bytes = make([]byte, n)
	}
	return s.bytes[:n]
}

// ReduceF64 reduces the elements of send across comm with the given
// operation; the result is stored in recv on the root rank only. send and
// recv must have the same length on all ranks.
func (p *Proc) ReduceF64(send, recv []float64, op Op, root int, comm *Comm) error {
	if comm == nil {
		comm = p.world.worldComm
	}
	me, err := p.me(comm)
	if err != nil {
		return err
	}
	if len(recv) < len(send) && me == root {
		return fmt.Errorf("mpi: reduce receive buffer too small: %d < %d", len(recv), len(send))
	}
	n := comm.Size()
	tag := p.nextCollTag(comm)
	// acc, tmp and the wire buffer are rank scratch: one message is in
	// flight at a time, and sendColl copies its payload before returning.
	work := p.f64Work(2 * len(send))
	acc, tmp := work[:len(send)], work[len(send):]
	copy(acc, send)
	buf := p.byteWork(8 * len(send))

	// Binomial tree rooted (virtually) at 0 after rotation.
	vrank := (me - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			if err := p.sendColl(encodeF64(buf, acc), parent, tag, comm); err != nil {
				return err
			}
			break
		}
		child := vrank | mask
		if child < n {
			src := (child + root) % n
			if err := p.recvColl(buf, src, tag, comm); err != nil {
				return err
			}
			decodeF64(buf, tmp)
			for i := range acc {
				acc[i] = op.apply(acc[i], tmp[i])
			}
		}
		mask <<= 1
	}
	if me == root {
		copy(recv, acc)
	}
	return nil
}

// AllreduceF64 reduces the elements of send across comm and distributes the
// result to every rank's recv (reduce to rank 0 followed by broadcast).
func (p *Proc) AllreduceF64(send, recv []float64, op Op, comm *Comm) error {
	if comm == nil {
		comm = p.world.worldComm
	}
	if len(recv) < len(send) {
		return fmt.Errorf("mpi: allreduce receive buffer too small: %d < %d", len(recv), len(send))
	}
	// The reduction lands in recv on rank 0 (ReduceF64 reads send before it
	// writes recv, so the two may alias); the broadcast then ships it
	// through the rank's byte scratch, which ReduceF64 is done with.
	out := recv[:len(send)]
	if err := p.ReduceF64(send, out, op, 0, comm); err != nil {
		return err
	}
	me, err := p.me(comm)
	if err != nil {
		return err
	}
	buf := p.byteWork(8 * len(send))
	if me == 0 {
		encodeF64(buf, out)
	}
	if err := p.BcastBytes(buf, 0, comm); err != nil {
		return err
	}
	decodeF64(buf, out)
	return nil
}

// AllgatherBytes gathers each rank's contribution (all of identical length)
// and returns the concatenation in comm-rank order, using the Bruck
// algorithm: ceil(log2(n)) rounds for any communicator size, each round
// shipping the (up to) first half of the blocks collected so far. Bandwidth
// matches the old ring (each rank still moves n blocks in total) but the
// round count — which is what both the simulated makespan and the host
// wall-clock scale with — drops from n-1 to log n.
func (p *Proc) AllgatherBytes(send []byte, comm *Comm) ([]byte, error) {
	if comm == nil {
		comm = p.world.worldComm
	}
	me, err := p.me(comm)
	if err != nil {
		return nil, err
	}
	n := comm.Size()
	blk := len(send)
	out := make([]byte, blk*n)
	if n == 1 {
		copy(out, send)
		return out, nil
	}
	tag := p.nextCollTag(comm)
	// tmp holds blocks in me-relative order: tmp block i belongs to comm
	// rank (me+i) mod n. Entering the round at distance d, blocks [0,d) are
	// present; the peer at distance d contributes its first min(d, n-d)
	// blocks, which are exactly our blocks [d, d+cnt).
	tmp := make([]byte, blk*n)
	copy(tmp, send)
	for d := 1; d < n; d *= 2 {
		cnt := d
		if n-d < cnt {
			cnt = n - d
		}
		to := (me - d + n) % n
		from := (me + d) % n
		rreq, err := p.irecv(tmp[d*blk:(d+cnt)*blk], comm.WorldRank(from), tag, comm)
		if err != nil {
			return nil, err
		}
		if err := p.sendColl(tmp[:cnt*blk], to, tag, comm); err != nil {
			return nil, err
		}
		if err := p.waitColl(rreq); err != nil {
			return nil, err
		}
	}
	// Rotate back to absolute comm-rank order.
	for i := 0; i < n; i++ {
		r := (me + i) % n
		copy(out[r*blk:(r+1)*blk], tmp[i*blk:(i+1)*blk])
	}
	return out, nil
}

// AllgatherF64 gathers one float64 slice per rank (identical lengths) and
// returns the concatenation in comm-rank order.
func (p *Proc) AllgatherF64(send []float64, comm *Comm) ([]float64, error) {
	raw, err := p.AllgatherBytes(encodeF64(make([]byte, 8*len(send)), send), comm)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(raw)/8)
	decodeF64(raw, out)
	return out, nil
}

// GatherBytes gathers each rank's contribution (identical lengths) to the
// root, which receives the concatenation in comm-rank order; other ranks
// receive nil. A binomial tree (rotated so the root is virtual rank 0, like
// BcastBytes/ReduceF64) replaces the old linear root-receives-from-everyone
// loop: the root now takes log n receives instead of n-1, with intermediate
// nodes forwarding their whole collected subtree in one message.
func (p *Proc) GatherBytes(send []byte, root int, comm *Comm) ([]byte, error) {
	if comm == nil {
		comm = p.world.worldComm
	}
	me, err := p.me(comm)
	if err != nil {
		return nil, err
	}
	n := comm.Size()
	tag := p.nextCollTag(comm)
	blk := len(send)
	vrank := (me - root + n) % n
	// My subtree spans virtual ranks [vrank, vrank+sub): sized upfront so a
	// leaf allocates one block, not O(n).
	sub := 1
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			break
		}
		if child := vrank + mask; child < n {
			cnt := mask
			if n-child < cnt {
				cnt = n - child
			}
			sub += cnt
		}
	}
	acc := make([]byte, sub*blk)
	copy(acc, send)
	have := 1
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			return nil, p.sendColl(acc[:have*blk], parent, tag, comm)
		}
		child := vrank + mask
		if child < n {
			cnt := mask
			if n-child < cnt {
				cnt = n - child
			}
			if err := p.recvColl(acc[mask*blk:(mask+cnt)*blk], (child+root)%n, tag, comm); err != nil {
				return nil, err
			}
			have = mask + cnt
		}
	}
	// Virtual rank 0 is the root: translate from virtual to comm-rank order.
	out := make([]byte, blk*n)
	for i := 0; i < n; i++ {
		r := (i + root) % n
		copy(out[r*blk:(r+1)*blk], acc[i*blk:(i+1)*blk])
	}
	return out, nil
}

// ScatterBytes scatters equal-size blocks of buf (significant at root only)
// to the members of comm; every rank receives its block.
func (p *Proc) ScatterBytes(buf []byte, blockLen, root int, comm *Comm) ([]byte, error) {
	if comm == nil {
		comm = p.world.worldComm
	}
	me, err := p.me(comm)
	if err != nil {
		return nil, err
	}
	n := comm.Size()
	tag := p.nextCollTag(comm)
	mine := make([]byte, blockLen)
	if me == root {
		if len(buf) < blockLen*n {
			return nil, fmt.Errorf("mpi: scatter buffer too small: %d < %d", len(buf), blockLen*n)
		}
		copy(mine, buf[me*blockLen:(me+1)*blockLen])
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			if err := p.sendColl(buf[r*blockLen:(r+1)*blockLen], r, tag, comm); err != nil {
				return nil, err
			}
		}
		return mine, nil
	}
	if err := p.recvColl(mine, root, tag, comm); err != nil {
		return nil, err
	}
	return mine, nil
}

// AlltoallBytes exchanges equal-size blocks between all pairs: rank i sends
// send[j*blockLen:(j+1)*blockLen] to rank j and receives rank j's i-th block.
// The pairwise-exchange algorithm is used (n-1 steps).
func (p *Proc) AlltoallBytes(send []byte, blockLen int, comm *Comm) ([]byte, error) {
	if comm == nil {
		comm = p.world.worldComm
	}
	me, err := p.me(comm)
	if err != nil {
		return nil, err
	}
	n := comm.Size()
	if len(send) < blockLen*n {
		return nil, fmt.Errorf("mpi: alltoall buffer too small: %d < %d", len(send), blockLen*n)
	}
	tag := p.nextCollTag(comm)
	out := make([]byte, blockLen*n)
	copy(out[me*blockLen:], send[me*blockLen:(me+1)*blockLen])
	for step := 1; step < n; step++ {
		// Shifted exchange: send our block for dst to dst, receive src's
		// block for us from src. Works for any communicator size.
		dst := (me + step) % n
		src := (me - step + n) % n
		rreq, err := p.irecv(out[src*blockLen:(src+1)*blockLen], comm.WorldRank(src), tag, comm)
		if err != nil {
			return nil, err
		}
		if err := p.sendColl(send[dst*blockLen:(dst+1)*blockLen], dst, tag, comm); err != nil {
			return nil, err
		}
		if err := p.waitColl(rreq); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ScanF64 computes the inclusive prefix reduction over comm ranks: rank i
// receives op(send_0, ..., send_i). Recursive doubling replaces the old
// linear chain (rank i waited on i-1): log n rounds, in round d every rank
// passes the reduction of its current window [i-d+1, i] to rank i+d and
// prepends the window arriving from rank i-d, so contiguous windows merge
// left-to-right exactly as the chain did.
func (p *Proc) ScanF64(send, recv []float64, op Op, comm *Comm) error {
	if comm == nil {
		comm = p.world.worldComm
	}
	me, err := p.me(comm)
	if err != nil {
		return err
	}
	if len(recv) < len(send) {
		return fmt.Errorf("mpi: scan receive buffer too small")
	}
	n := comm.Size()
	tag := p.nextCollTag(comm)
	// carry is the reduction of my window; it both feeds the next peer and,
	// on the final round of a rank, is the finished prefix. All working
	// vectors are rank scratch; the posted receive and the outgoing send of
	// a round use separate halves of the byte scratch.
	work := p.f64Work(2 * len(send))
	carry, tmp := work[:len(send)], work[len(send):]
	copy(carry, send)
	wire := p.byteWork(16 * len(send))
	buf, out := wire[:8*len(send)], wire[8*len(send):]
	for d := 1; d < n; d *= 2 {
		var rreq *Request
		if me-d >= 0 {
			if rreq, err = p.irecv(buf, comm.WorldRank(me-d), tag, comm); err != nil {
				return err
			}
		}
		if me+d < n {
			if err := p.sendColl(encodeF64(out, carry), me+d, tag, comm); err != nil {
				return err
			}
		}
		if rreq != nil {
			if err := p.waitColl(rreq); err != nil {
				return err
			}
			decodeF64(buf, tmp)
			for i := range carry {
				carry[i] = op.apply(tmp[i], carry[i])
			}
		}
	}
	copy(recv, carry)
	return nil
}

// allgatherSplit exchanges split entries among the members of comm; used by
// CommSplit.
func (p *Proc) allgatherSplit(comm *Comm, mine splitEntry) ([]splitEntry, error) {
	enc := make([]byte, 24)
	binary.LittleEndian.PutUint64(enc[0:], uint64(int64(mine.Color)))
	binary.LittleEndian.PutUint64(enc[8:], uint64(int64(mine.Key)))
	binary.LittleEndian.PutUint64(enc[16:], uint64(int64(mine.World)))
	raw, err := p.AllgatherBytes(enc, comm)
	if err != nil {
		return nil, err
	}
	n := comm.Size()
	out := make([]splitEntry, n)
	for i := 0; i < n; i++ {
		b := raw[i*24 : (i+1)*24]
		out[i] = splitEntry{
			Color: int(int64(binary.LittleEndian.Uint64(b[0:]))),
			Key:   int(int64(binary.LittleEndian.Uint64(b[8:]))),
			World: int(int64(binary.LittleEndian.Uint64(b[16:]))),
		}
	}
	return out, nil
}
