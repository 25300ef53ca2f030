package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
	"repro/internal/trace"
)

// testWorld creates a world with the default cost model, failing the test on
// error.
func testWorld(t *testing.T, n int, opts ...Option) *World {
	t.Helper()
	w, err := NewWorld(n, simnet.DefaultCostModel(), opts...)
	if err != nil {
		t.Fatalf("NewWorld(%d): %v", n, err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0, simnet.DefaultCostModel()); err == nil {
		t.Fatal("world of size 0 must be rejected")
	}
	bad := simnet.DefaultCostModel()
	bad.Bandwidth = 0
	if _, err := NewWorld(4, bad); err == nil {
		t.Fatal("invalid cost model must be rejected")
	}
}

func TestSendRecvBlocking(t *testing.T) {
	w := testWorld(t, 2)
	payload := []byte("hello spbc")
	err := w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		switch p.Rank() {
		case 0:
			return p.Send(payload, 1, 7, comm)
		case 1:
			buf := make([]byte, len(payload))
			st, err := p.Recv(buf, 0, 7, comm)
			if err != nil {
				return err
			}
			if !bytes.Equal(buf, payload) {
				return fmt.Errorf("payload mismatch: %q", buf)
			}
			if st.Source != 0 || st.Tag != 7 || st.Bytes != len(payload) || st.Seq != 1 {
				return fmt.Errorf("bad status: %+v", st)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Proc(1).Now() <= 0 {
		t.Error("receiver's virtual clock should have advanced")
	}
}

func TestFIFOPerChannel(t *testing.T) {
	w := testWorld(t, 2)
	const n = 50
	err := w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				msg := []byte{byte(i)}
				if err := p.Send(msg, 1, 3, comm); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			buf := make([]byte, 1)
			st, err := p.Recv(buf, 0, 3, comm)
			if err != nil {
				return err
			}
			if int(buf[0]) != i {
				return fmt.Errorf("message %d received out of order: got %d", i, buf[0])
			}
			if st.Seq != uint64(i+1) {
				return fmt.Errorf("expected seq %d, got %d", i+1, st.Seq)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAndAnyTag(t *testing.T) {
	w := testWorld(t, 3)
	err := w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		if p.Rank() != 0 {
			return p.Send([]byte{byte(p.Rank())}, 0, 10+p.Rank(), comm)
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			buf := make([]byte, 1)
			st, err := p.Recv(buf, AnySource, AnyTag, comm)
			if err != nil {
				return err
			}
			if int(buf[0]) != st.Source {
				return fmt.Errorf("payload %d does not match source %d", buf[0], st.Source)
			}
			if st.Tag != 10+st.Source {
				return fmt.Errorf("unexpected tag %d from %d", st.Tag, st.Source)
			}
			seen[st.Source] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("wildcard receive missed a sender: %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectiveMatching(t *testing.T) {
	// The receiver consumes tag 2 before tag 1 even though tag 1 was sent
	// first on the same channel: MPI matching is by tag, not arrival order.
	w := testWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		if p.Rank() == 0 {
			if err := p.Send([]byte("first"), 1, 1, comm); err != nil {
				return err
			}
			return p.Send([]byte("second"), 1, 2, comm)
		}
		buf2 := make([]byte, 6)
		st2, err := p.Recv(buf2, 0, 2, comm)
		if err != nil {
			return err
		}
		if string(buf2[:st2.Bytes]) != "second" {
			return fmt.Errorf("tag 2 recv got %q", buf2[:st2.Bytes])
		}
		buf1 := make([]byte, 5)
		st1, err := p.Recv(buf1, 0, 1, comm)
		if err != nil {
			return err
		}
		if string(buf1[:st1.Bytes]) != "first" {
			return fmt.Errorf("tag 1 recv got %q", buf1[:st1.Bytes])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	w := testWorld(t, 4)
	err := w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		n := p.Size()
		// Every rank sends its rank to every other rank and receives from all.
		var reqs []*Request
		recvBufs := make([][]byte, n)
		for r := 0; r < n; r++ {
			if r == p.Rank() {
				continue
			}
			recvBufs[r] = make([]byte, 8)
			rq, err := p.Irecv(recvBufs[r], r, 99, comm)
			if err != nil {
				return err
			}
			reqs = append(reqs, rq)
		}
		val := make([]byte, 8)
		binary.LittleEndian.PutUint64(val, uint64(p.Rank()))
		for r := 0; r < n; r++ {
			if r == p.Rank() {
				continue
			}
			rq, err := p.Isend(val, r, 99, comm)
			if err != nil {
				return err
			}
			reqs = append(reqs, rq)
		}
		if _, err := p.Waitall(reqs); err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			if r == p.Rank() {
				continue
			}
			got := binary.LittleEndian.Uint64(recvBufs[r])
			if got != uint64(r) {
				return fmt.Errorf("expected %d from rank %d, got %d", r, r, got)
			}
		}
		if p.PendingRequests() != 0 {
			return fmt.Errorf("pending requests should be zero, got %d", p.PendingRequests())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitanyAndTest(t *testing.T) {
	w := testWorld(t, 3)
	err := w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		if p.Rank() != 0 {
			return p.Send([]byte{byte(p.Rank())}, 0, 5, comm)
		}
		buf1 := make([]byte, 1)
		buf2 := make([]byte, 1)
		r1, err := p.Irecv(buf1, 1, 5, comm)
		if err != nil {
			return err
		}
		r2, err := p.Irecv(buf2, 2, 5, comm)
		if err != nil {
			return err
		}
		reqs := []*Request{r1, r2}
		got := map[int]bool{}
		for i := 0; i < 2; i++ {
			idx, st, err := p.Waitany(reqs)
			if err != nil {
				return err
			}
			if idx < 0 {
				return fmt.Errorf("waitany returned no index on iteration %d", i)
			}
			got[st.Source] = true
		}
		if !got[1] || !got[2] {
			return fmt.Errorf("waitany missed a source: %v", got)
		}
		// All requests finalized now.
		idx, _, err := p.Waitany(reqs)
		if err != nil {
			return err
		}
		if idx != -1 {
			return fmt.Errorf("waitany over finalized requests should return -1, got %d", idx)
		}
		ok, err := p.Testall(reqs)
		if err != nil || !ok {
			return fmt.Errorf("testall on completed requests: ok=%v err=%v", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTestNonBlocking(t *testing.T) {
	w := testWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		if p.Rank() == 1 {
			buf := make([]byte, 1)
			rq, err := p.Irecv(buf, 0, 4, comm)
			if err != nil {
				return err
			}
			// Poll with Test until the message arrives.
			for {
				ok, st, err := p.Test(rq)
				if err != nil {
					return err
				}
				if ok {
					if st.Source != 0 {
						return fmt.Errorf("unexpected source %d", st.Source)
					}
					return nil
				}
			}
		}
		return p.Send([]byte{42}, 1, 4, comm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeAndIprobe(t *testing.T) {
	w := testWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		if p.Rank() == 0 {
			return p.Send([]byte("probe-me"), 1, 11, comm)
		}
		st, err := p.Probe(AnySource, 11, comm)
		if err != nil {
			return err
		}
		if st.Bytes != 8 || st.Source != 0 {
			return fmt.Errorf("probe status wrong: %+v", st)
		}
		// Iprobe must also see it without consuming it.
		ok, _, err := p.Iprobe(0, 11, comm)
		if err != nil || !ok {
			return fmt.Errorf("iprobe should find the message: ok=%v err=%v", ok, err)
		}
		buf := make([]byte, st.Bytes)
		if _, err := p.Recv(buf, st.Source, st.Tag, comm); err != nil {
			return err
		}
		// Now the queue is empty.
		ok, _, err = p.Iprobe(AnySource, AnyTag, comm)
		if err != nil {
			return err
		}
		if ok {
			return fmt.Errorf("iprobe found a message after it was received")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	cost := simnet.DefaultCostModel()
	w, err := NewWorld(2, cost)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, cost.EagerThreshold*2)
	for i := range big {
		big[i] = byte(i % 251)
	}
	err = w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		if p.Rank() == 0 {
			req, err := p.Isend(big, 1, 1, comm)
			if err != nil {
				return err
			}
			if _, err := p.Wait(req); err != nil {
				return err
			}
			// Rendezvous: the sender's completion time includes the transfer,
			// which only starts once the receiver posts its request.
			if p.Now() <= cost.Latency {
				return fmt.Errorf("sender completed a rendezvous send too early: %g", p.Now())
			}
			return nil
		}
		p.Compute(0.01) // receiver posts late
		buf := make([]byte, len(big))
		st, err := p.Recv(buf, 0, 1, comm)
		if err != nil {
			return err
		}
		if !bytes.Equal(buf, big) {
			return fmt.Errorf("large payload corrupted")
		}
		if st.Bytes != len(big) {
			return fmt.Errorf("status bytes = %d", st.Bytes)
		}
		if p.Now() < 0.01+cost.TransferTime(0, 1, len(big)) {
			return fmt.Errorf("receiver clock %g does not include the rendezvous transfer", p.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The sender's completion should reflect waiting for the late receiver.
	if w.Proc(0).Now() < 0.01 {
		t.Errorf("rendezvous sender should have waited for the receiver: clock=%g", w.Proc(0).Now())
	}
}

func TestEagerSendCompletesLocally(t *testing.T) {
	w := testWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		if p.Rank() == 0 {
			req, err := p.Isend([]byte("small"), 1, 1, comm)
			if err != nil {
				return err
			}
			if !req.Done() {
				return fmt.Errorf("eager send should complete immediately")
			}
			_, err = p.Wait(req)
			return err
		}
		// Receiver computes for a long time; the sender must not be delayed.
		p.Compute(1.0)
		buf := make([]byte, 5)
		_, err := p.Recv(buf, 0, 1, comm)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Proc(0).Now() >= 0.5 {
		t.Errorf("eager sender should not wait for the receiver, clock=%g", w.Proc(0).Now())
	}
}

func TestInvalidArguments(t *testing.T) {
	w := testWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		if _, err := p.Isend([]byte{1}, 9, 1, comm); err == nil {
			return fmt.Errorf("invalid destination accepted")
		}
		if _, err := p.Isend([]byte{1}, 1, -3, comm); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		if _, err := p.Isend([]byte{1}, 1, MaxAppTag+1, comm); err == nil {
			return fmt.Errorf("reserved tag accepted")
		}
		if _, err := p.Irecv(make([]byte, 1), 17, 1, comm); err == nil {
			return fmt.Errorf("invalid source accepted")
		}
		if _, err := p.Wait(nil); err == nil {
			return fmt.Errorf("wait on nil request accepted")
		}
		if _, _, err := p.Test(nil); err == nil {
			return fmt.Errorf("test on nil request accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitOnForeignRequestRejected(t *testing.T) {
	w := testWorld(t, 2)
	var req0 *Request
	err := w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		if p.Rank() == 0 {
			var err error
			req0, err = p.Isend([]byte{1}, 1, 1, comm)
			if err != nil {
				return err
			}
			_, err = p.Wait(req0)
			return err
		}
		buf := make([]byte, 1)
		_, err := p.Recv(buf, 0, 1, comm)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Proc(1).Wait(req0); err == nil {
		t.Fatal("waiting on another rank's request must be rejected")
	}
}

func TestComputeAdvancesClockAndStats(t *testing.T) {
	w := testWorld(t, 1)
	p := w.Proc(0)
	p.Compute(2.5)
	p.Compute(-1)
	if p.Now() != 2.5 {
		t.Errorf("clock = %g, want 2.5", p.Now())
	}
	if got := p.Stats.Snapshot().CompTime; got != 2.5 {
		t.Errorf("comp time = %g, want 2.5", got)
	}
}

func TestStatsCounters(t *testing.T) {
	w := testWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		comm := w.CommWorld()
		if p.Rank() == 0 {
			return p.Send(make([]byte, 100), 1, 1, comm)
		}
		buf := make([]byte, 100)
		_, err := p.Recv(buf, 0, 1, comm)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s0 := w.Proc(0).Stats.Snapshot()
	s1 := w.Proc(1).Stats.Snapshot()
	if s0.Sends != 1 || s0.BytesSent != 100 {
		t.Errorf("sender stats wrong: %+v", s0)
	}
	if s1.Recvs != 1 || s1.BytesRecv != 100 {
		t.Errorf("receiver stats wrong: %+v", s1)
	}
	byDst := w.Proc(0).Stats.snapshotBytesToDst()
	if byDst[1] != 100 {
		t.Errorf("per-destination bytes wrong: %v", byDst)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	w := testWorld(t, 3)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 2 {
			return fmt.Errorf("boom")
		}
		// Other ranks block on a message that never comes; Abort must wake them.
		buf := make([]byte, 1)
		_, err := p.Recv(buf, 2, 1, w.CommWorld())
		return err
	})
	if err == nil {
		t.Fatal("expected an error from the failing rank")
	}
	if !w.Stopped() {
		t.Fatal("world should be stopped after a rank error")
	}
}

func TestRunRecoversPanics(t *testing.T) {
	w := testWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			panic("deliberate test panic")
		}
		buf := make([]byte, 1)
		_, err := p.Recv(buf, 0, 1, w.CommWorld())
		return err
	})
	if err == nil {
		t.Fatal("expected panic to surface as an error")
	}
}

func TestTraceRecordingAndDeterminism(t *testing.T) {
	run := func() *trace.Recorder {
		rec := trace.NewRecorder(3)
		w, err := NewWorld(3, simnet.DefaultCostModel(), WithRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *Proc) error {
			comm := w.CommWorld()
			right := (p.Rank() + 1) % p.Size()
			left := (p.Rank() - 1 + p.Size()) % p.Size()
			buf := make([]byte, 8)
			rq, err := p.Irecv(buf, left, 1, comm)
			if err != nil {
				return err
			}
			msg := make([]byte, 8)
			binary.LittleEndian.PutUint64(msg, uint64(p.Rank()))
			if err := p.Send(msg, right, 1, comm); err != nil {
				return err
			}
			_, err = p.Wait(rq)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	a := run()
	b := run()
	if a.TotalEvents() == 0 {
		t.Fatal("no events recorded")
	}
	if err := trace.CheckChannelDeterminism(a, b); err != nil {
		t.Fatalf("ring exchange must be channel-deterministic: %v", err)
	}
	if err := trace.CheckSendDeterminism(a, b); err != nil {
		t.Fatalf("ring exchange must be send-deterministic: %v", err)
	}
}

func TestPropertySeqNumbersMonotonicPerChannel(t *testing.T) {
	f := func(nMsgs uint8) bool {
		n := int(nMsgs%20) + 1
		w, err := NewWorld(2, simnet.DefaultCostModel())
		if err != nil {
			return false
		}
		ok := true
		err = w.Run(func(p *Proc) error {
			comm := w.CommWorld()
			if p.Rank() == 0 {
				for i := 0; i < n; i++ {
					if err := p.Send([]byte{byte(i)}, 1, 1, comm); err != nil {
						return err
					}
				}
				return nil
			}
			var last uint64
			for i := 0; i < n; i++ {
				buf := make([]byte, 1)
				st, err := p.Recv(buf, 0, 1, comm)
				if err != nil {
					return err
				}
				if st.Seq != last+1 {
					ok = false
				}
				last = st.Seq
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPayloadIntegrity(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		w, err := NewWorld(2, simnet.DefaultCostModel())
		if err != nil {
			return false
		}
		var got []byte
		err = w.Run(func(p *Proc) error {
			comm := w.CommWorld()
			if p.Rank() == 0 {
				return p.Send(payload, 1, 1, comm)
			}
			buf := make([]byte, len(payload))
			st, err := p.Recv(buf, 0, 1, comm)
			if err != nil {
				return err
			}
			got = buf[:st.Bytes]
			return nil
		})
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestChanKeyCompareOrder pins the one channel order: communicator first,
// then peer.
func TestChanKeyCompareOrder(t *testing.T) {
	want := []ChanKey{{Peer: 3, Comm: 0}, {Peer: 7, Comm: 0}, {Peer: 0, Comm: 1}, {Peer: 2, Comm: 1}, {Peer: 1, Comm: 4}}
	got := []ChanKey{want[4], want[2], want[0], want[3], want[1]}
	slices.SortFunc(got, ChanKey.Compare)
	if !slices.Equal(got, want) {
		t.Fatalf("sorted keys = %v, want %v", got, want)
	}
	if c := want[1].Compare(want[1]); c != 0 {
		t.Fatalf("a key compares %d to itself, want 0", c)
	}
}
