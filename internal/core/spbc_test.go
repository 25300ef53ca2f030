package core

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/logstore"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

func testProc(t *testing.T) *mpi.Proc {
	t.Helper()
	w, err := mpi.NewWorld(2, simnet.DefaultCostModel())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w.Proc(0)
}

func TestSPBCPatternStamping(t *testing.T) {
	s := NewSPBC(0, NewSPBCProtocol([]int{0, 1}), simnet.DefaultCostModel(), logstore.New())
	p := testProc(t)

	env := &mpi.Envelope{Source: 0, Dest: 1}
	s.StampSend(p, env)
	if !env.Match.IsDefault() {
		t.Fatalf("outside a pattern section, match should be default, got %v", env.Match)
	}

	pat := s.DeclarePattern()
	if pat == 0 {
		t.Fatalf("DeclarePattern returned the reserved default identifier")
	}
	s.BeginIteration(pat)
	s.StampSend(p, env)
	want := mpi.MatchID{Pattern: pat, Iteration: 1}
	if env.Match != want {
		t.Fatalf("stamp = %v, want %v", env.Match, want)
	}
	renv := &mpi.Envelope{Source: mpi.AnySource, Dest: 0, Tag: mpi.AnyTag}
	s.StampRecv(p, renv)
	if renv.Match != want {
		t.Fatalf("recv stamp = %v, want %v", renv.Match, want)
	}
	s.EndIteration(pat)
	s.StampSend(p, env)
	if !env.Match.IsDefault() {
		t.Fatalf("after EndIteration, match should be default, got %v", env.Match)
	}

	s.BeginIteration(pat)
	s.StampSend(p, env)
	if got := (mpi.MatchID{Pattern: pat, Iteration: 2}); env.Match != got {
		t.Fatalf("second iteration stamp = %v, want %v", env.Match, got)
	}
}

func TestSPBCExtraMatch(t *testing.T) {
	s := NewSPBC(0, NewSPBCProtocol([]int{0, 1}), simnet.DefaultCostModel(), logstore.New())
	a := mpi.MatchID{Pattern: 1, Iteration: 3}
	b := mpi.MatchID{Pattern: 1, Iteration: 4}
	if !s.ExtraMatch(a, a) {
		t.Fatalf("identical identifiers must match")
	}
	if s.ExtraMatch(a, b) {
		t.Fatalf("different iterations must not match")
	}
	if s.ExtraMatch(mpi.MatchID{}, a) {
		t.Fatalf("default request must not match an identified message")
	}
	if !s.ExtraMatch(mpi.MatchID{}, mpi.MatchID{}) {
		t.Fatalf("default identifiers must match each other")
	}
}

func TestSPBCOnSendLogsInterClusterOnly(t *testing.T) {
	log := logstore.New()
	cost := simnet.DefaultCostModel()
	s := NewSPBC(0, NewSPBCProtocol([]int{0, 0, 1}), cost, log)
	p := testProc(t)

	intra := mpi.Envelope{Source: 0, Dest: 1, Seq: 1, Bytes: 4}
	transmit, c := s.OnSend(p, intra, buf.Copy([]byte{1, 2, 3, 4}))
	if !transmit || c != 0 {
		t.Fatalf("intra-cluster send: transmit=%v cost=%g, want true/0", transmit, c)
	}
	if log.CumulativeCount() != 0 {
		t.Fatalf("intra-cluster send must not be logged")
	}

	inter := mpi.Envelope{Source: 0, Dest: 2, Seq: 1, Bytes: 4}
	transmit, c = s.OnSend(p, inter, buf.Copy([]byte{1, 2, 3, 4}))
	if !transmit {
		t.Fatalf("inter-cluster send must be transmitted in failure-free mode")
	}
	if want := cost.LogCost(4); c != want {
		t.Fatalf("inter-cluster log cost = %g, want %g", c, want)
	}
	if log.CumulativeCount() != 1 {
		t.Fatalf("inter-cluster send must be logged, count = %d", log.CumulativeCount())
	}
}

func TestSPBCSuppressionCutoffs(t *testing.T) {
	log := logstore.New()
	s := NewSPBC(0, NewSPBCProtocol([]int{0, 1}), simnet.DefaultCostModel(), log)
	p := testProc(t)
	s.beginRecovery(true, []recoveryChan{{src: 0, dst: 1, seen: 2, sent: 1}})

	for seq, wantTransmit := range map[uint64]bool{1: false, 2: false, 3: true} {
		env := mpi.Envelope{Source: 0, Dest: 1, Seq: seq, Bytes: 1}
		transmit, _ := s.OnSend(p, env, buf.Copy([]byte{9}))
		if transmit != wantTransmit {
			t.Fatalf("seq %d: transmit=%v, want %v", seq, transmit, wantTransmit)
		}
	}
	// Suppressed sends are still (re-)logged exactly once.
	if log.CumulativeCount() != 3 {
		t.Fatalf("re-logged records = %d, want 3", log.CumulativeCount())
	}

	s.endRecovery()
	env := mpi.Envelope{Source: 0, Dest: 1, Seq: 1, Bytes: 1}
	if transmit, _ := s.OnSend(p, env, buf.Copy([]byte{9})); !transmit {
		t.Fatalf("after endRecovery nothing is suppressed")
	}
}

// TestSPBCCutoffsOverwrite pins how a recovery event's cutoffs land: a rank
// that is not recovering installs none, a rank still re-executing takes the
// event's cutoff even when it is lower than the one it held (the destination
// rolled back and needs those sends again), and a rank the event rolls back
// drops every cutoff of its earlier recovery.
func TestSPBCCutoffsOverwrite(t *testing.T) {
	s := NewSPBC(0, NewSPBCProtocol([]int{0, 1, 2}), simnet.DefaultCostModel(), logstore.New())
	p := testProc(t)
	transmits := func(dst int, seq uint64) bool {
		ok, _ := s.OnSend(p, mpi.Envelope{Source: 0, Dest: dst, Seq: seq, Bytes: 1}, buf.Copy([]byte{9}))
		return ok
	}

	s.beginRecovery(false, []recoveryChan{{src: 0, dst: 1, seen: 5}})
	if !transmits(1, 3) {
		t.Fatal("a rank that is not recovering must not install cutoffs")
	}

	s.beginRecovery(true, []recoveryChan{{src: 0, dst: 1, seen: 5}, {src: 0, dst: 2, seen: 4}})
	s.beginRecovery(false, []recoveryChan{{src: 0, dst: 1, seen: 2}})
	if !transmits(1, 3) {
		t.Fatal("a recovering rank kept a higher cutoff over the event's lower one")
	}
	if transmits(1, 2) || transmits(2, 4) {
		t.Fatal("a recovering rank lost a cutoff the event kept or did not touch")
	}

	s.beginRecovery(true, []recoveryChan{{src: 0, dst: 1, seen: 1}})
	if !transmits(2, 4) {
		t.Fatal("a rolled-back rank kept a cutoff of its earlier recovery")
	}
}

func TestSPBCStateRoundTrip(t *testing.T) {
	s := NewSPBC(0, NewSPBCProtocol([]int{0, 1}), simnet.DefaultCostModel(), logstore.New())
	pat := s.DeclarePattern()
	s.BeginIteration(pat)
	s.EndIteration(pat)
	s.BeginIteration(pat)
	s.EndIteration(pat)
	raw, err := s.EncodeState()
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}

	// Advance past the snapshot, then roll back.
	s.BeginIteration(pat)
	s.EndIteration(pat)
	if err := s.RestoreState(raw); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	s.BeginIteration(pat)
	p := testProc(t)
	env := &mpi.Envelope{Source: 0, Dest: 1}
	s.StampSend(p, env)
	want := mpi.MatchID{Pattern: pat, Iteration: 3}
	if env.Match != want {
		t.Fatalf("post-restore stamp = %v, want %v (re-execution must reproduce identifiers)", env.Match, want)
	}
}
