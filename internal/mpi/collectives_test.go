package mpi

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/buf"
	"repro/internal/simnet"
)

// runSizes runs fn as a world body for several world sizes, including
// non-powers of two.
func runSizes(t *testing.T, sizes []int, fn func(w *World, p *Proc) error) {
	t.Helper()
	for _, n := range sizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			w := testWorld(t, n)
			if err := w.Run(func(p *Proc) error { return fn(w, p) }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

var collectiveSizes = []int{1, 2, 3, 4, 7, 8, 13}

func TestBarrier(t *testing.T) {
	runSizes(t, collectiveSizes, func(w *World, p *Proc) error {
		for i := 0; i < 3; i++ {
			if err := p.Barrier(w.CommWorld()); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestBcastBytes(t *testing.T) {
	runSizes(t, collectiveSizes, func(w *World, p *Proc) error {
		comm := w.CommWorld()
		for root := 0; root < comm.Size(); root++ {
			buf := make([]byte, 16)
			if p.Rank() == root {
				for i := range buf {
					buf[i] = byte(root + i)
				}
			}
			if err := p.BcastBytes(buf, root, comm); err != nil {
				return err
			}
			for i := range buf {
				if buf[i] != byte(root+i) {
					return fmt.Errorf("rank %d: bcast from %d corrupted at %d", p.Rank(), root, i)
				}
			}
		}
		return nil
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	runSizes(t, collectiveSizes, func(w *World, p *Proc) error {
		comm := w.CommWorld()
		n := comm.Size()
		send := []float64{float64(p.Rank() + 1), float64(p.Rank())}
		wantSum := []float64{float64(n*(n+1)) / 2, float64(n*(n-1)) / 2}

		recv := make([]float64, 2)
		if err := p.ReduceF64(send, recv, OpSum, 0, comm); err != nil {
			return err
		}
		if p.Rank() == 0 {
			for i := range recv {
				if math.Abs(recv[i]-wantSum[i]) > 1e-9 {
					return fmt.Errorf("reduce sum[%d] = %g, want %g", i, recv[i], wantSum[i])
				}
			}
		}

		all := make([]float64, 2)
		if err := p.AllreduceF64(send, all, OpSum, comm); err != nil {
			return err
		}
		for i := range all {
			if math.Abs(all[i]-wantSum[i]) > 1e-9 {
				return fmt.Errorf("allreduce sum[%d] = %g, want %g on rank %d", i, all[i], wantSum[i], p.Rank())
			}
		}

		mx := make([]float64, 2)
		if err := p.AllreduceF64(send, mx, OpMax, comm); err != nil {
			return err
		}
		if mx[0] != float64(n) {
			return fmt.Errorf("allreduce max = %g, want %d", mx[0], n)
		}
		mn := make([]float64, 2)
		if err := p.AllreduceF64(send, mn, OpMin, comm); err != nil {
			return err
		}
		if mn[0] != 1 {
			return fmt.Errorf("allreduce min = %g, want 1", mn[0])
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	runSizes(t, collectiveSizes, func(w *World, p *Proc) error {
		comm := w.CommWorld()
		n := comm.Size()
		send := []byte{byte(p.Rank()), byte(p.Rank() * 2)}
		out, err := p.AllgatherBytes(send, comm)
		if err != nil {
			return err
		}
		if len(out) != 2*n {
			return fmt.Errorf("allgather length %d, want %d", len(out), 2*n)
		}
		for r := 0; r < n; r++ {
			if out[2*r] != byte(r) || out[2*r+1] != byte(r*2) {
				return fmt.Errorf("allgather block %d corrupted: %v", r, out[2*r:2*r+2])
			}
		}
		fl, err := p.AllgatherF64([]float64{float64(p.Rank())}, comm)
		if err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			if fl[r] != float64(r) {
				return fmt.Errorf("allgatherF64 block %d = %g", r, fl[r])
			}
		}
		return nil
	})
}

func TestAlltoall(t *testing.T) {
	runSizes(t, collectiveSizes, func(w *World, p *Proc) error {
		comm := w.CommWorld()
		n := comm.Size()
		send := make([]byte, n)
		for j := 0; j < n; j++ {
			send[j] = byte(p.Rank()*16 + j)
		}
		out, err := p.AlltoallBytes(send, 1, comm)
		if err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			want := byte(j*16 + p.Rank())
			if out[j] != want {
				return fmt.Errorf("rank %d alltoall block from %d = %d, want %d", p.Rank(), j, out[j], want)
			}
		}
		return nil
	})
}

func TestCollectiveOnNonMemberRejected(t *testing.T) {
	w := testWorld(t, 4)
	ranks01, err := w.InternComm([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *Proc) error {
		if p.Rank() >= 2 {
			// Try to use a communicator we are not a member of.
			if err := p.Barrier(ranks01); err == nil {
				return fmt.Errorf("barrier on a non-member communicator must fail")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesGoThroughProtocolLogging(t *testing.T) {
	// A counting protocol verifies that collective operations decompose into
	// point-to-point messages visible to the protocol (the paper's
	// assumption that lets SPBC log collective traffic transparently).
	w := testWorld(t, 4)
	counters := make([]countingProtocol, 4)
	for i := range counters {
		w.Proc(i).SetProtocol(&counters[i])
	}
	err := w.Run(func(p *Proc) error {
		buf := []float64{1}
		out := make([]float64, 1)
		return p.AllreduceF64(buf, out, OpSum, w.CommWorld())
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range counters {
		total += counters[i].sends
	}
	if total == 0 {
		t.Fatal("collectives should generate point-to-point sends visible to the protocol")
	}
}

// countingProtocol counts OnSend invocations.
type countingProtocol struct {
	NopProtocol
	sends int
}

func (c *countingProtocol) OnSend(p *Proc, env Envelope, payload *buf.Buffer) (bool, float64) {
	c.sends++
	return true, 0
}

func TestOpApplyAndString(t *testing.T) {
	if OpSum.apply(2, 3) != 5 || OpProd.apply(2, 3) != 6 {
		t.Error("sum/prod wrong")
	}
	if OpMax.apply(2, 3) != 3 || OpMin.apply(2, 3) != 2 {
		t.Error("max/min wrong")
	}
	if Op(99).apply(2, 3) != 5 {
		t.Error("unknown op should default to sum")
	}
	names := map[Op]string{OpSum: "sum", OpMax: "max", OpMin: "min", OpProd: "prod"}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("Op.String() = %q, want %q", op.String(), want)
		}
	}
	if Op(99).String() == "" {
		t.Error("unknown op should still format")
	}
}

func TestMatchIDString(t *testing.T) {
	m := MatchID{Pattern: 3, Iteration: 9}
	if m.IsDefault() {
		t.Error("non-zero match id reported as default")
	}
	if (MatchID{}).IsDefault() == false {
		t.Error("zero match id should be default")
	}
	if m.String() != "(p3,i9)" {
		t.Errorf("MatchID string = %q", m.String())
	}
}

func TestVirtualTimeBarrierSynchronizes(t *testing.T) {
	// A rank that computes for 1 virtual second before a barrier must drag
	// every other rank's clock past 1 second.
	w := testWorld(t, 4)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 2 {
			p.Compute(1.0)
		}
		return p.Barrier(w.CommWorld())
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if w.Proc(r).Now() < 1.0 {
			t.Errorf("rank %d clock %g should be past the slowest rank's compute", r, w.Proc(r).Now())
		}
	}
}

func TestCostModelIntraNodeUsedInWorld(t *testing.T) {
	cost := simnet.DefaultCostModel()
	cost.RanksPerNode = 2
	w, err := NewWorld(4, cost)
	if err != nil {
		t.Fatal(err)
	}
	var intraTime, interTime float64
	err = w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		buf := make([]byte, 1024)
		switch p.Rank() {
		case 0:
			if err := p.Send(buf, 1, 1, comm); err != nil { // same node
				return err
			}
			return p.Send(buf, 2, 1, comm) // different node
		case 1:
			_, err := p.Recv(buf, 0, 1, comm)
			intraTime = p.Now()
			return err
		case 2:
			_, err := p.Recv(buf, 0, 1, comm)
			interTime = p.Now()
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if intraTime >= interTime {
		t.Errorf("intra-node receive (%g) should complete before inter-node receive (%g)", intraTime, interTime)
	}
}

// TestReduceAllRoots pins the rotated-root shapes of the binomial reduce.
func TestReduceAllRoots(t *testing.T) {
	runSizes(t, collectiveSizes, func(w *World, p *Proc) error {
		comm := w.CommWorld()
		n := comm.Size()
		for root := 0; root < n; root++ {
			send := []float64{float64(p.Rank() + 1)}
			recv := make([]float64, 1)
			if err := p.ReduceF64(send, recv, OpSum, root, comm); err != nil {
				return err
			}
			if p.Rank() == root && recv[0] != float64(n*(n+1))/2 {
				return fmt.Errorf("reduce to root %d = %g, want %g", root, recv[0], float64(n*(n+1))/2)
			}
		}
		return nil
	})
}

// TestAllgatherLargeBlocks stresses the Bruck rounds with multi-byte blocks
// whose count per round is clipped at non-powers of two, and checks that the
// final rotation restores absolute comm-rank order for every member.
func TestAllgatherLargeBlocks(t *testing.T) {
	runSizes(t, collectiveSizes, func(w *World, p *Proc) error {
		comm := w.CommWorld()
		n := comm.Size()
		const blk = 33 // deliberately odd-sized blocks
		send := make([]byte, blk)
		for i := range send {
			send[i] = byte(p.Rank()*7 + i)
		}
		out, err := p.AllgatherBytes(send, comm)
		if err != nil {
			return err
		}
		if len(out) != blk*n {
			return fmt.Errorf("allgather length %d, want %d", len(out), blk*n)
		}
		for r := 0; r < n; r++ {
			for i := 0; i < blk; i++ {
				if out[r*blk+i] != byte(r*7+i) {
					return fmt.Errorf("rank %d: allgather block %d byte %d = %d, want %d",
						p.Rank(), r, i, out[r*blk+i], byte(r*7+i))
				}
			}
		}
		return nil
	})
}

// TestCollectivesOnSubComm runs the collectives on a strided
// sub-communicator (members 0, 2, 4, ... of the world) with a rotated root:
// every peer index the algorithms compute is comm-relative and must survive
// the world-rank translation.
func TestCollectivesOnSubComm(t *testing.T) {
	w := testWorld(t, 9)
	sub, err := w.InternComm([]int{0, 2, 4, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID() == w.CommWorld().ID() {
		t.Fatal("sub communicator must have its own ID")
	}
	err = w.Run(func(p *Proc) error {
		if p.Rank()%2 != 0 {
			return nil
		}
		n := sub.Size()
		me := sub.CommRank(p.id)
		out, err := p.AllgatherBytes([]byte{byte(10 + me)}, sub)
		if err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			if out[r] != byte(10+r) {
				return fmt.Errorf("sub allgather block %d = %d", r, out[r])
			}
		}
		root := n - 2
		recv := make([]float64, 1)
		if err := p.ReduceF64([]float64{float64(me + 1)}, recv, OpSum, root, sub); err != nil {
			return err
		}
		if me == root && recv[0] != float64(n*(n+1)/2) {
			return fmt.Errorf("sub reduce to root %d = %g, want %d", root, recv[0], n*(n+1)/2)
		}
		// Sum of the members' world ranks: 0+2+4+6+8.
		if err := p.AllreduceF64([]float64{float64(p.Rank())}, recv, OpSum, sub); err != nil {
			return err
		}
		if recv[0] != 20 {
			return fmt.Errorf("sub allreduce on member %d = %g, want 20", me, recv[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInternComm covers the communicator constructor: the same membership
// must intern to the same comm, a different one to a comm with its own ID,
// and invalid memberships must be rejected.
func TestInternComm(t *testing.T) {
	w := testWorld(t, 6)
	groupA := []int{1, 3, 5}
	cA, err := w.InternComm(groupA)
	if err != nil {
		t.Fatal(err)
	}
	if cA.Size() != 3 || cA.CommRank(3) != 1 {
		t.Fatalf("InternComm comm: size %d, rank of 3 = %d", cA.Size(), cA.CommRank(3))
	}
	cA2, err := w.InternComm([]int{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if cA2 != cA {
		t.Fatal("same membership must intern to the same communicator")
	}
	cB, err := w.InternComm([]int{3, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if cB == cA || cB.ID() == cA.ID() || cB.CommRank(3) != 0 {
		t.Fatal("a reordered membership is a different communicator")
	}
	for _, bad := range [][]int{nil, {}, {0, 6}, {-1}, {2, 2}} {
		if _, err := w.InternComm(bad); err == nil {
			t.Errorf("InternComm(%v) must fail", bad)
		}
	}
}
