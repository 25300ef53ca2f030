package trace

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventKindString(t *testing.T) {
	kinds := map[EventKind]string{
		EventSend:     "send",
		EventPost:     "post",
		EventMatch:    "match",
		EventComplete: "complete",
		EventDeliver:  "deliver",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := EventKind(42).String(); got != "EventKind(42)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestDigestDistinguishesPayloads(t *testing.T) {
	a := Digest([]byte("hello"))
	b := Digest([]byte("hellp"))
	if a == b {
		t.Errorf("digests of different payloads should differ")
	}
	if Digest(nil) != Digest([]byte{}) {
		t.Errorf("nil and empty payloads should hash identically")
	}
}

func TestVectorClockHappensBefore(t *testing.T) {
	a := NewVectorClock(3)
	b := NewVectorClock(3)
	a.Tick(0) // a = [1 0 0]
	b.Merge(a)
	b.Tick(1) // b = [1 1 0]
	if !a.HappensBefore(b) {
		t.Errorf("a should happen before b")
	}
	if b.HappensBefore(a) {
		t.Errorf("b should not happen before a")
	}
	c := NewVectorClock(3)
	c.Tick(2) // c = [0 0 1]
	if !a.Concurrent(c) {
		t.Errorf("a and c should be concurrent")
	}
	if a.HappensBefore(a.Clone()) {
		t.Errorf("a clock does not happen before an equal clock")
	}
	if !a.Equal(a.Clone()) {
		t.Errorf("clone should be equal")
	}
}

func TestVectorClockMismatchedLengths(t *testing.T) {
	// Clocks of different lengths belong to different worlds: comparing or
	// merging them is a wiring bug that used to be silently masked (Merge
	// truncated, HappensBefore returned false). Both must panic now, naming
	// both lengths.
	a := NewVectorClock(2)
	b := NewVectorClock(3)
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s on mismatched lengths did not panic", name)
				return
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Errorf("%s panic %q does not name both lengths (want substring %q)", name, msg, want)
			}
		}()
		f()
	}
	mustPanic("HappensBefore", "len 2 vs 3", func() { a.HappensBefore(b) })
	mustPanic("Merge", "len 2 vs 3", func() { a.Merge(b) })
	if a.Equal(b) {
		t.Errorf("clocks of different sizes are never equal")
	}
}

func TestPropertyMergeIsUpperBound(t *testing.T) {
	f := func(x, y [4]uint8) bool {
		a := NewVectorClock(4)
		b := NewVectorClock(4)
		for i := 0; i < 4; i++ {
			a[i] = uint64(x[i])
			b[i] = uint64(y[i])
		}
		m := a.Clone().Merge(b)
		for i := 0; i < 4; i++ {
			if m[i] < a[i] || m[i] < b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHappensBeforeAntisymmetric(t *testing.T) {
	f := func(x, y [3]uint8) bool {
		a := NewVectorClock(3)
		b := NewVectorClock(3)
		for i := 0; i < 3; i++ {
			a[i] = uint64(x[i])
			b[i] = uint64(y[i])
		}
		// a < b and b < a cannot both hold.
		return !(a.HappensBefore(b) && b.HappensBefore(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// buildExec records a tiny execution: rank 0 sends two messages to rank 1 on
// channel 0->1, rank 2 sends one message to rank 1. The order of the sends by
// different ranks can be permuted by the caller to emulate different valid
// executions of a channel-deterministic algorithm.
func buildExec(t *testing.T, deliverThirdFirst bool) *Recorder {
	t.Helper()
	r := NewRecorder(3)
	ch01 := ChannelKey{Src: 0, Dst: 1, Comm: 0}
	ch21 := ChannelKey{Src: 2, Dst: 1, Comm: 0}

	// Sends.
	r.Record(Event{Kind: EventSend, Rank: 0, Channel: ch01, Seq: 1, Bytes: 8, Digest: 11})
	r.Record(Event{Kind: EventSend, Rank: 0, Channel: ch01, Seq: 2, Bytes: 8, Digest: 12})
	r.Record(Event{Kind: EventSend, Rank: 2, Channel: ch21, Seq: 1, Bytes: 8, Digest: 21})

	deliver := func(ch ChannelKey, seq uint64, digest uint64) {
		r.Record(Event{Kind: EventDeliver, Rank: 1, Channel: ch, Seq: seq, Bytes: 8, Digest: digest})
	}
	if deliverThirdFirst {
		deliver(ch21, 1, 21)
		deliver(ch01, 1, 11)
		deliver(ch01, 2, 12)
	} else {
		deliver(ch01, 1, 11)
		deliver(ch01, 2, 12)
		deliver(ch21, 1, 21)
	}
	return r
}

// TestDerivedClocks pins the offline derivation on buildExec: every event
// ticks its rank, and a deliver merges the clock its send was recorded with
// (not the sender's later clock).
func TestDerivedClocks(t *testing.T) {
	for _, tc := range []struct {
		thirdFirst bool
		want       [][]VectorClock
	}{
		{false, [][]VectorClock{
			{{1, 0, 0}, {2, 0, 0}},
			{{1, 1, 0}, {2, 2, 0}, {2, 3, 1}},
			{{0, 0, 1}},
		}},
		{true, [][]VectorClock{
			{{1, 0, 0}, {2, 0, 0}},
			{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}},
			{{0, 0, 1}},
		}},
	} {
		r := buildExec(t, tc.thirdFirst)
		for rank, want := range tc.want {
			events := r.EventsOf(rank)
			if len(events) != len(want) {
				t.Fatalf("thirdFirst=%v rank %d: %d events, want %d", tc.thirdFirst, rank, len(events), len(want))
			}
			for i, e := range events {
				if !e.Clock.Equal(want[i]) {
					t.Errorf("thirdFirst=%v rank %d event %d (%s %s#%d): clock %v, want %v",
						tc.thirdFirst, rank, i, e.Kind, e.Channel, e.Seq, e.Clock, want[i])
				}
			}
		}
	}
}

// TestClocksNeedFailureFreeTrace: a trace where a (channel, seq) has no
// single send has no derivable clocks. ComputeAlwaysHappensBefore reports
// the offending message and EventsOf leaves every clock nil.
func TestClocksNeedFailureFreeTrace(t *testing.T) {
	ch01 := ChannelKey{Src: 0, Dst: 1, Comm: 0}
	ch10 := ChannelKey{Src: 1, Dst: 0, Comm: 0}
	for _, tc := range []struct {
		name   string
		events []Event
		want   string
	}{
		{"re-executed send", reexecutionEvents(), "0->1@0#2 sent twice"},
		{"deliver without send", []Event{
			{Kind: EventSend, Rank: 0, Channel: ch01, Seq: 1},
			{Kind: EventDeliver, Rank: 1, Channel: ch01, Seq: 1},
			{Kind: EventDeliver, Rank: 1, Channel: ch01, Seq: 2},
		}, "0->1@0#2 delivered on rank 1 but never sent"},
		{"deliver before its send", []Event{
			{Kind: EventDeliver, Rank: 0, Channel: ch10, Seq: 1},
			{Kind: EventSend, Rank: 0, Channel: ch01, Seq: 1},
			{Kind: EventDeliver, Rank: 1, Channel: ch01, Seq: 1},
			{Kind: EventSend, Rank: 1, Channel: ch10, Seq: 1},
		}, "1->0@0#1 delivered on rank 0 before it was sent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder(2)
			for _, e := range tc.events {
				r.Record(e)
			}
			if _, err := ComputeAlwaysHappensBefore(r); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ComputeAlwaysHappensBefore error = %v, want one containing %q", err, tc.want)
			}
			for rank := 0; rank < r.Ranks(); rank++ {
				for _, e := range r.EventsOf(rank) {
					if e.Clock != nil {
						t.Fatalf("rank %d %s %s#%d has clock %v, want nil", rank, e.Kind, e.Channel, e.Seq, e.Clock)
					}
				}
			}
		})
	}
}

func TestChannelDeterminismHoldsAcrossDeliveryOrders(t *testing.T) {
	a := buildExec(t, false)
	b := buildExec(t, true)
	if err := CheckChannelDeterminism(a, b); err != nil {
		t.Fatalf("executions differ only in delivery order, channel-determinism must hold: %v", err)
	}
	if err := CheckSendDeterminism(a, b); err != nil {
		t.Fatalf("per-rank send order unchanged, send-determinism must hold: %v", err)
	}
	if !DeliveryOrdersDiffer(a, b) {
		t.Fatalf("delivery orders were permuted and should be reported as different")
	}
}

func TestChannelDeterminismViolationDetected(t *testing.T) {
	a := buildExec(t, false)
	b := NewRecorder(3)
	ch01 := ChannelKey{Src: 0, Dst: 1, Comm: 0}
	ch21 := ChannelKey{Src: 2, Dst: 1, Comm: 0}
	// Swap the order (and hence seqnums/digests) of the two messages on 0->1.
	b.Record(Event{Kind: EventSend, Rank: 0, Channel: ch01, Seq: 1, Bytes: 8, Digest: 12})
	b.Record(Event{Kind: EventSend, Rank: 0, Channel: ch01, Seq: 2, Bytes: 8, Digest: 11})
	b.Record(Event{Kind: EventSend, Rank: 2, Channel: ch21, Seq: 1, Bytes: 8, Digest: 21})
	if err := CheckChannelDeterminism(a, b); err == nil {
		t.Fatalf("swapped payloads on a channel must be flagged as a violation")
	}
	if err := CheckSendDeterminism(a, b); err == nil {
		t.Fatalf("swapped payloads also violate send-determinism")
	}
}

func TestChannelDeterminismDifferentChannelSets(t *testing.T) {
	a := buildExec(t, false)
	b := NewRecorder(3)
	b.Record(Event{Kind: EventSend, Rank: 0, Channel: ChannelKey{Src: 0, Dst: 2, Comm: 0}, Seq: 1})
	if err := CheckChannelDeterminism(a, b); err == nil {
		t.Fatalf("different channel sets must be flagged")
	}
	c := NewRecorder(4)
	if err := CheckChannelDeterminism(a, c); err == nil {
		t.Fatalf("different rank counts must be flagged")
	}
}

func TestSendDeterminismViolationAcrossChannels(t *testing.T) {
	// Channel-deterministic but NOT send-deterministic: rank 0 sends one
	// message to rank 1 and one to rank 2, in different relative orders in
	// the two executions (the per-channel sequences are unchanged).
	mk := func(firstToRank1 bool) *Recorder {
		r := NewRecorder(3)
		ch01 := ChannelKey{Src: 0, Dst: 1, Comm: 0}
		ch02 := ChannelKey{Src: 0, Dst: 2, Comm: 0}
		if firstToRank1 {
			r.Record(Event{Kind: EventSend, Rank: 0, Channel: ch01, Seq: 1, Digest: 1})
			r.Record(Event{Kind: EventSend, Rank: 0, Channel: ch02, Seq: 1, Digest: 2})
		} else {
			r.Record(Event{Kind: EventSend, Rank: 0, Channel: ch02, Seq: 1, Digest: 2})
			r.Record(Event{Kind: EventSend, Rank: 0, Channel: ch01, Seq: 1, Digest: 1})
		}
		return r
	}
	a, b := mk(true), mk(false)
	if err := CheckChannelDeterminism(a, b); err != nil {
		t.Fatalf("per-channel sequences unchanged, channel-determinism must hold: %v", err)
	}
	if err := CheckSendDeterminism(a, b); err == nil {
		t.Fatalf("per-rank order changed, send-determinism must be violated")
	}
}

func TestAlwaysHappensBefore(t *testing.T) {
	a := buildExec(t, false)
	b := buildExec(t, true)
	ahb, err := ComputeAlwaysHappensBefore(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ch01 := ChannelKey{Src: 0, Dst: 1, Comm: 0}
	ch21 := ChannelKey{Src: 2, Dst: 1, Comm: 0}
	m1 := MsgID{Channel: ch01, Seq: 1}
	m2 := MsgID{Channel: ch01, Seq: 2}
	m3 := MsgID{Channel: ch21, Seq: 1}
	if !ahb.Before(m1, m2) {
		t.Errorf("deliveries on the same FIFO channel must be always-ordered")
	}
	if ahb.Before(m1, m3) || ahb.Before(m3, m1) {
		t.Errorf("messages whose delivery order differs across executions must not be always-ordered")
	}
	if ahb.Before(m2, m1) {
		t.Errorf("relation must not be symmetric")
	}
	if ahb.Len() == 0 {
		t.Errorf("relation should not be empty")
	}
	empty, err := ComputeAlwaysHappensBefore()
	if err != nil || empty.Len() != 0 {
		t.Errorf("relation over zero executions must be empty")
	}
}

func TestRecorderAccessors(t *testing.T) {
	r := buildExec(t, false)
	if r.TotalEvents() != 6 {
		t.Errorf("expected 6 events, got %d", r.TotalEvents())
	}
	chans := r.Channels()
	if len(chans) != 2 {
		t.Fatalf("expected 2 channels, got %d", len(chans))
	}
	if chans[0].Src > chans[1].Src {
		t.Errorf("channels must be returned in deterministic sorted order")
	}
	sends := r.ChannelSends(chans[0])
	if len(sends) != 2 {
		t.Errorf("channel 0->1 should carry 2 sends, got %d", len(sends))
	}
	if got := r.EventsOf(99); got != nil {
		t.Errorf("out-of-range rank should return nil events")
	}
	if got := r.EventsOf(1); len(got) != 3 {
		t.Errorf("rank 1 should have 3 deliver events, got %d", len(got))
	}
}

func TestChannelSendsPreservesReexecutionOrder(t *testing.T) {
	// A recovering rank re-records earlier (channel, seq) positions after its
	// later ones; the reconstructed channel order must be program order, with
	// the duplicates exactly where they were recorded.
	r := NewRecorder(2)
	ch := ChannelKey{Src: 0, Dst: 1, Comm: 0}
	for _, e := range reexecutionEvents() {
		r.Record(e)
	}
	sends := r.ChannelSends(ch)
	if len(sends) != 5 {
		t.Fatalf("expected 5 send events (duplicates preserved), got %d", len(sends))
	}
	want := []uint64{1, 2, 3, 2, 3}
	for i, e := range sends {
		if e.Seq != want[i] {
			t.Fatalf("send #%d seq = %d, want %d", i, e.Seq, want[i])
		}
	}
	seqs := r.SendSequenceByChannel()[ch]
	for i, id := range seqs {
		if id.Seq != want[i] || id.Digest != want[i]*7 {
			t.Fatalf("identity #%d = %+v", i, id)
		}
	}
}

// reexecutionEvents is a recovering sender's trace: it re-records earlier
// (channel, seq) positions after its later ones.
func reexecutionEvents() []Event {
	ch := ChannelKey{Src: 0, Dst: 1, Comm: 0}
	var out []Event
	for _, seq := range []uint64{1, 2, 3, 2, 3} { // failure after 3, re-exec 2..3
		out = append(out, Event{Kind: EventSend, Rank: 0, Channel: ch, Seq: seq, Digest: seq * 7})
	}
	return out
}

func TestRecordReusedClockSafeToScribble(t *testing.T) {
	// Record ignores the caller's clock, so the caller may scribble it
	// immediately: the event's clock is derived from the trace alone.
	r := NewRecorder(1)
	vc := VectorClock{7, 7, 7, 7}
	r.Record(Event{Kind: EventSend, Rank: 0, Channel: ChannelKey{Src: 0, Dst: 0}, Seq: 1, Clock: vc})
	for i := range vc {
		vc[i] = 99
	}
	if got, want := r.EventsOf(0)[0].Clock, (VectorClock{1}); !got.Equal(want) {
		t.Fatalf("clock = %v, want the derived %v", got, want)
	}
}

func TestRecordOutOfRangeRankDropped(t *testing.T) {
	r := NewRecorder(2)
	r.Record(Event{Kind: EventSend, Rank: 5, Channel: ChannelKey{Src: 5, Dst: 0}, Seq: 1})
	r.Record(Event{Kind: EventSend, Rank: -1, Seq: 1})
	if r.TotalEvents() != 0 {
		t.Fatalf("out-of-range ranks must be dropped, got %d events", r.TotalEvents())
	}
	if r.ChannelSends(ChannelKey{Src: 5, Dst: 0}) != nil {
		t.Fatal("sends of out-of-range ranks must not be reconstructible")
	}
}
