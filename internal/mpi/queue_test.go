package mpi

import (
	"fmt"
	"testing"
)

// queueSizes is one observation of a Proc's matching indexes.
type queueSizes struct {
	posted, unexp           int // live keys
	sparePosted, spareUnexp int // emptied rings kept for reuse
}

func (q queueSizes) max(o queueSizes) queueSizes {
	return queueSizes{
		posted:      max(q.posted, o.posted),
		unexp:       max(q.unexp, o.unexp),
		sparePosted: max(q.sparePosted, o.sparePosted),
		spareUnexp:  max(q.spareUnexp, o.spareUnexp),
	}
}

// spares counts an index's spare stack.
func spares[T any](x *matchIndex[T]) int {
	n := 0
	for q := x.spare; q != nil; q = q.next {
		n++
	}
	return n
}

func (p *Proc) queueSizes() queueSizes {
	p.mu.Lock()
	defer p.mu.Unlock()
	return queueSizes{
		posted:      len(p.posted.rings),
		unexp:       len(p.unexp.rings),
		sparePosted: spares(&p.posted),
		spareUnexp:  spares(&p.unexp),
	}
}

// TestMatchIndexesStayBounded pins the live-keys invariant of the matching
// indexes. Every collective invocation uses fresh tags, so an index that
// kept a key per (peer, tag) it ever saw would grow linearly with the number
// of collectives run; with only live keys and a spare stack of emptied
// rings, the indexes of every rank stay under a constant set by the number
// of messages in flight, whatever the round count. Wildcard matching must
// keep recovering global arrival order across the retired and reused rings.
func TestMatchIndexesStayBounded(t *testing.T) {
	const (
		n      = 64
		rounds = 1000
		// Bound on every observed size: a rank observes its indexes between
		// collectives, when at most the next collective's first fragments
		// (one per dissemination or tree round, log2(64) = 6 per comm) can
		// be in flight towards it.
		bound = 16
	)
	w := testWorld(t, n)
	peak := make([]queueSizes, n)
	atTenth := make([]queueSizes, n)
	var halves [2][]int // even and odd world ranks
	for r := 0; r < n; r++ {
		halves[r%2] = append(halves[r%2], r)
	}
	var subs [2]*Comm
	for i, members := range halves {
		c, err := w.InternComm(members)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = c
	}
	err := w.Run(func(p *Proc) error {
		sub := subs[p.Rank()%2]
		send := []float64{float64(p.Rank()), 1}
		recv := make([]float64, 2)
		bcast := make([]byte, 24)
		for round := 0; round < rounds; round++ {
			for _, comm := range []*Comm{w.CommWorld(), sub} {
				if err := p.Barrier(comm); err != nil {
					return err
				}
				if err := p.AllreduceF64(send, recv, OpSum, comm); err != nil {
					return err
				}
				if want := float64(comm.Size()); recv[1] != want {
					return fmt.Errorf("rank %d round %d: allreduce count %v, want %v", p.Rank(), round, recv[1], want)
				}
				if err := p.BcastBytes(bcast, round%comm.Size(), comm); err != nil {
					return err
				}
				peak[p.Rank()] = peak[p.Rank()].max(p.queueSizes())
			}
			if round == rounds/10-1 {
				atTenth[p.Rank()] = peak[p.Rank()]
			}
		}
		return p.checkWildcardArrivalOrder(w.CommWorld())
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, got := range peak {
		if got.posted > bound || got.unexp > bound || got.sparePosted > bound || got.spareUnexp > bound {
			t.Errorf("rank %d: peak index sizes %+v after %d rounds (%+v after %d), want each <= %d",
				r, got, rounds, atTenth[r], rounds/10, bound)
		}
		if end := w.Proc(r).queueSizes(); end.posted != 0 || end.unexp != 0 {
			t.Errorf("rank %d: %d posted and %d unexpected keys left after the run, want 0", r, end.posted, end.unexp)
		}
	}
	t.Logf("rank 0 peak index sizes: %+v after %d rounds, %+v after %d", peak[0], rounds, atTenth[0], rounds/10)
}

// checkWildcardArrivalOrder has ranks 1, 2 and 3 send rank 0 one message
// each, with distinct tags, strictly one after the other (a token passed
// along the senders orders them). Rank 0 waits until the last one is queued,
// then its AnySource/AnyTag receives must match them in arrival order.
func (p *Proc) checkWildcardArrivalOrder(comm *Comm) error {
	const tokenTag = 100
	token := []byte{1}
	switch me := p.Rank(); {
	case me >= 1 && me <= 3:
		if me > 1 {
			if _, err := p.Recv(token, me-1, tokenTag, comm); err != nil {
				return err
			}
		}
		if err := p.Send([]byte{byte(me)}, 0, 10+me, comm); err != nil {
			return err
		}
		if me < 3 {
			return p.Send(token, me+1, tokenTag, comm)
		}
	case me == 0:
		if _, err := p.Probe(3, 13, comm); err != nil {
			return err
		}
		for want := 1; want <= 3; want++ {
			got := make([]byte, 1)
			req, err := p.Irecv(got, AnySource, AnyTag, comm)
			if err != nil {
				return err
			}
			st, err := p.Wait(req)
			if err != nil {
				return err
			}
			if st.Source != want || st.Tag != 10+want || got[0] != byte(want) {
				return fmt.Errorf("wildcard receive %d matched source %d tag %d payload %d, want the arrival from %d",
					want, st.Source, st.Tag, got[0], want)
			}
		}
		if n := p.UnexpectedCount(); n != 0 {
			return fmt.Errorf("%d unexpected messages left", n)
		}
	}
	return nil
}
