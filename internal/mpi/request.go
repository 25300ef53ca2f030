package mpi

// reqKind distinguishes send and receive requests.
type reqKind int

const (
	reqSend reqKind = iota
	reqRecv
)

// Request represents an outstanding non-blocking operation, like MPI_Request.
// A request is created by Isend or Irecv and completed by Wait, Waitall or
// Waitany. All request state is protected by the owning process's mutex.
type Request struct {
	proc *Proc
	kind reqKind

	// Receive-side fields.
	buf        []byte
	wantSource int // requested world source or AnySource
	wantTag    int
	comm       *Comm
	match      MatchID
	postTime   float64
	stamp      uint64 // post-order stamp across the indexed posted queues

	// Completion.
	done         bool
	finalized    bool // statistics already applied
	completeTime float64
	status       Status
	msg          *inMessage

	next *Request // free-list link while the request is recycled
}

// newRequest returns a blank request owned by p, recycled from p.freeReqs
// when one is available. Rank goroutine only.
func (p *Proc) newRequest() *Request {
	if r := p.freeReqs; r != nil {
		p.freeReqs, r.next = r.next, nil
		return r
	}
	return &Request{proc: p}
}

// waitColl waits for a request the runtime created for a collective fragment
// and never handed to the caller. After a successful Wait nothing references
// the request any more, so it goes back to p.freeReqs; one abandoned by an
// error (ErrWorldStopped included) or by a RestoreChannels reset is left to
// the collector.
func (p *Proc) waitColl(r *Request) error {
	if _, err := p.Wait(r); err != nil {
		return err
	}
	*r = Request{proc: p, next: p.freeReqs}
	p.freeReqs = r
	return nil
}
