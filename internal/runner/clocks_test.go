package runner

import (
	"encoding/binary"
	"hash/fnv"
	"regexp"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
)

// clockDigest folds the vector clock of every recorded event, rank by rank in
// program order, into one FNV-1a hash.
func clockDigest(rec *trace.Recorder) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for r := 0; r < rec.Ranks(); r++ {
		for _, e := range rec.EventsOf(r) {
			for _, c := range e.Clock {
				binary.LittleEndian.PutUint64(b[:], c)
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// TestDerivedClocksMatchOnlineClocks pins the offline clock derivation to the
// clocks the runtime used to compute online, on every send and deliver: the
// digests were taken when each message carried its sender's clock and every
// deliver merged it. Each run is failure-free, 16 ranks, 12 steps, interval 4.
func TestDerivedClocksMatchOnlineClocks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		app    model.AppFactory
		proto  Protocol
		events int
		digest uint64
	}{
		{"ring/native", app.NewRing(16, 3), ProtocolNative, 1008, 0x60d413d4ab86ee73},
		{"ring/spbc", app.NewRing(16, 3), ProtocolSPBC, 1584, 0xb6545d359b628fdd},
		{"solver/coordinated", app.NewSolver(16), ProtocolCoordinated, 2208, 0xc7453c0bfda07495},
		{"solver/spbc", app.NewSolver(16), ProtocolSPBC, 2016, 0x5f78da4aa1fc0f95},
		{"phase-shift/full-log", app.NewPhaseShift(32, 2), ProtocolFullLog, 576, 0x9270ccb4c9c33de5},
		{"phase-shift/adaptive", app.NewPhaseShift(32, 2), ProtocolSPBCAdaptive, 1152, 0x2084dcfbf722bb65},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := Scenario{Name: tc.name, App: tc.app, Ranks: 16, RanksPerNode: 2, Steps: 12}
			rec := trace.NewRecorder(sc.Ranks)
			if _, err := Run(sc, WithProtocol(tc.proto), WithCheckpointInterval(4), WithRecorder(rec)); err != nil {
				t.Fatal(err)
			}
			if got := rec.TotalEvents(); got != tc.events {
				t.Fatalf("recorded %d events, want %d", got, tc.events)
			}
			if got := clockDigest(rec); got != tc.digest {
				t.Fatalf("clock digest %#016x, want %#016x", got, tc.digest)
			}
		})
	}
}

// TestClocksRejectRecoveredRun: a run that rolled back re-executes sends, so
// its clocks are not derivable. The always-happens-before analysis names the
// re-executed message and EventsOf returns no clocks.
func TestClocksRejectRecoveredRun(t *testing.T) {
	sc := baseScenario()
	rec := trace.NewRecorder(sc.Ranks)
	if _, err := Run(sc, WithCheckpointInterval(4), WithFaults(core.Fault{Rank: 1, Iteration: 6}), WithRecorder(rec)); err != nil {
		t.Fatal(err)
	}
	_, err := trace.ComputeAlwaysHappensBefore(rec)
	if err == nil {
		t.Fatal("always-happens-before over a recovered run must fail")
	}
	if !regexp.MustCompile(`\d+->\d+@\d+#\d+`).MatchString(err.Error()) {
		t.Fatalf("error %q does not name the message", err)
	}
	for r := 0; r < rec.Ranks(); r++ {
		for _, e := range rec.EventsOf(r) {
			if e.Clock != nil {
				t.Fatalf("rank %d %s %s#%d has clock %v, want nil", r, e.Kind, e.Channel, e.Seq, e.Clock)
			}
		}
	}
}
