package runner

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// appTraffic keeps only application point-to-point sends on the world
// communicator: protocol traffic (communicator construction, checkpoint
// barriers, collective fragments) uses the reserved tag range or group
// communicators.
func appTraffic(e trace.Event) bool {
	return e.Channel.Comm == 0 && e.Tag <= mpi.MaxAppTag
}

// protectedProtocols are the four protocols that run under the engine.
func protectedProtocols() []Protocol {
	return []Protocol{ProtocolCoordinated, ProtocolFullLog, ProtocolSPBC, ProtocolSPBCAdaptive}
}

// reexecutedRanks derives, from a trace, the set of ranks that rolled back:
// a rank that re-executes after a rollback reassigns sequence numbers it had
// already used, so it is exactly the set of sources with a repeated
// (channel, seq) send position.
func reexecutedRanks(rec *trace.Recorder) map[int]bool {
	out := make(map[int]bool)
	for _, c := range rec.Channels() {
		seen := make(map[uint64]bool)
		for _, e := range rec.ChannelSends(c) {
			if seen[e.Seq] {
				out[c.Src] = true
			}
			seen[e.Seq] = true
		}
	}
	return out
}

// TestProtocolEquivalenceStress is the cross-protocol determinism sweep:
// randomized kernels, cluster counts and fault plans, drawn from a fixed
// seed, must leave the application result bit-identical and the filtered
// per-channel application message streams identical across all four
// protocols.
func TestProtocolEquivalenceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(20130731)) // the paper's year, why not
	cases := 4
	if testing.Short() {
		cases = 2
	}
	for i := 0; i < cases; i++ {
		ranks := 4 + 2*rng.Intn(3) // 4, 6 or 8
		steps := 8 + rng.Intn(4)
		interval := 2 + rng.Intn(3)
		clusters := 2 + rng.Intn(2)
		var factory model.AppFactory
		var kernel string
		if rng.Intn(2) == 0 {
			factory = app.NewRing(8+8*rng.Intn(2), 2+rng.Intn(2))
			kernel = "ring"
		} else {
			factory = app.NewSolver(8 + 8*rng.Intn(2))
			kernel = "solver"
		}
		var faults []core.Fault
		seenIter := map[int]bool{}
		for n := rng.Intn(3); n > 0; n-- {
			f := core.Fault{Rank: rng.Intn(ranks), Iteration: 1 + rng.Intn(steps-1)}
			if seenIter[f.Iteration] {
				continue
			}
			seenIter[f.Iteration] = true
			faults = append(faults, f)
		}
		t.Logf("case %d: ranks=%d steps=%d interval=%d clusters=%d kernel=%s faults=%v", i, ranks, steps, interval, clusters, kernel, faults)
		base := Scenario{
			Name:         "equiv",
			App:          factory,
			Ranks:        ranks,
			RanksPerNode: 2,
			Clusters:     clusters,
			Steps:        steps,
		}

		recNative := trace.NewRecorder(ranks)
		nat := base
		nat.Protocol = ProtocolNative
		nat.Recorder = recNative
		native, err := Run(nat)
		if err != nil {
			t.Fatalf("case %d (%s): native: %v", i, kernel, err)
		}

		for _, proto := range protectedProtocols() {
			rec := trace.NewRecorder(ranks)
			sc := base
			sc.Protocol = proto
			sc.CheckpointInterval = interval
			sc.Faults = faults
			sc.Recorder = rec
			rep, err := Run(sc)
			if err != nil {
				t.Fatalf("case %d (%s, ranks=%d steps=%d faults=%v): %s: %v",
					i, kernel, ranks, steps, faults, proto, err)
			}
			if !reflect.DeepEqual(rep.Verify, native.Verify) {
				t.Fatalf("case %d (%s, faults=%v): %s diverged from native:\n%v\n%v",
					i, kernel, faults, proto, rep.Verify, native.Verify)
			}
			if err := trace.CheckFilteredChannelDeterminism(recNative, rec, appTraffic); err != nil {
				t.Fatalf("case %d (%s, faults=%v): %s channel streams: %v", i, kernel, faults, proto, err)
			}
		}
	}
}

// TestRecoveryScopeByProtocol pins down the rollback scope of each protocol,
// asserted both from the engine metrics and from the trace events (ranks that
// re-executed sends): full-log rolls back exactly the failed rank,
// coordinated rolls back the whole world, SPBC exactly the failed cluster.
func TestRecoveryScopeByProtocol(t *testing.T) {
	const ranks, steps, failed = 8, 12, 5
	base := baseScenario()
	base.Steps = steps
	fault := core.Fault{Rank: failed, Iteration: 6} // rolls back to the wave at 4

	nat := base
	nat.Protocol = ProtocolNative
	native, err := Run(nat)
	if err != nil {
		t.Fatalf("native: %v", err)
	}

	for _, tc := range []struct {
		proto Protocol
		want  func(rep *Report) []int
	}{
		{ProtocolFullLog, func(*Report) []int { return []int{failed} }},
		{ProtocolCoordinated, func(*Report) []int { return []int{0, 1, 2, 3, 4, 5, 6, 7} }},
		{ProtocolSPBC, func(rep *Report) []int {
			var cluster []int
			for r, c := range rep.ClusterOf {
				if c == rep.ClusterOf[failed] {
					cluster = append(cluster, r)
				}
			}
			return cluster
		}},
	} {
		t.Run(string(tc.proto), func(t *testing.T) {
			rec := trace.NewRecorder(ranks)
			sc := base
			sc.Protocol = tc.proto
			sc.CheckpointInterval = 4
			sc.Faults = []core.Fault{fault}
			sc.Recorder = rec
			rep, err := Run(sc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !reflect.DeepEqual(rep.Verify, native.Verify) {
				t.Fatalf("recovered run diverged from native")
			}
			want := tc.want(rep)
			if !reflect.DeepEqual(rep.Engine.RolledBackRanks, want) {
				t.Fatalf("metrics rolled back %v, want %v", rep.Engine.RolledBackRanks, want)
			}
			got := reexecutedRanks(rec)
			if len(got) != len(want) {
				t.Fatalf("trace shows re-execution on %v, want exactly %v", got, want)
			}
			for _, r := range want {
				if !got[r] {
					t.Fatalf("trace shows no re-executed sends on rank %d (re-executed: %v)", r, got)
				}
			}
			switch tc.proto {
			case ProtocolCoordinated:
				if rep.TotalLoggedBytes != 0 || rep.Engine.ReplayedRecords != 0 {
					t.Fatalf("coordinated must not log or replay: %+v", rep.Engine)
				}
			case ProtocolFullLog:
				if rep.Engine.ReplayedRecords == 0 {
					t.Fatalf("full-log recovery must replay from the logs")
				}
				if rep.Engine.RestoredCheckpoints != 1 {
					t.Fatalf("full-log restores one checkpoint, got %d", rep.Engine.RestoredCheckpoints)
				}
			case ProtocolSPBC:
				if rep.Engine.ReplayedRecords == 0 {
					t.Fatalf("SPBC recovery must replay inter-cluster messages")
				}
				if n := len(want); n == 0 || n == ranks {
					t.Fatalf("SPBC rollback must be cluster-local, got %d of %d ranks", n, ranks)
				}
			}
		})
	}
}

// TestPresetClusterAssignment covers the profiling-skip path harnesses use:
// a preset partition must be respected verbatim and still recover correctly.
func TestPresetClusterAssignment(t *testing.T) {
	preset := []int{0, 0, 1, 1, 1, 1, 0, 0} // deliberately not what profiling picks
	base := baseScenario()
	base.ClusterOf = preset

	nat := baseScenario()
	nat.Protocol = ProtocolNative
	native, err := Run(nat)
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	base.CheckpointInterval = 4
	base.Faults = []core.Fault{{Rank: 2, Iteration: 6}}
	rep, err := Run(base)
	if err != nil {
		t.Fatalf("run with preset assignment: %v", err)
	}
	if !reflect.DeepEqual(rep.ClusterOf, preset) {
		t.Fatalf("report partition %v, want the preset %v", rep.ClusterOf, preset)
	}
	if !reflect.DeepEqual(rep.Verify, native.Verify) {
		t.Fatalf("preset-partition recovery diverged from native")
	}
	if want := []int{2, 3, 4, 5}; !reflect.DeepEqual(rep.Engine.RolledBackRanks, want) {
		t.Fatalf("rolled back %v, want the preset cluster %v", rep.Engine.RolledBackRanks, want)
	}

	bad := baseScenario()
	bad.ClusterOf = []int{0, 1} // wrong length
	if _, err := Run(bad); err == nil {
		t.Fatalf("wrong-length assignment accepted")
	}
	bad = baseScenario()
	bad.ClusterOf = preset
	bad.Protocol = ProtocolCoordinated
	if _, err := Run(bad); err == nil {
		t.Fatalf("cluster assignment under a non-SPBC protocol accepted")
	}
}

// TestProtocolLoggingExtremes pins the logged-volume ordering the paper's
// comparison rests on: coordinated logs nothing, SPBC logs only inter-cluster
// traffic, full-log logs every sent byte.
func TestProtocolLoggingExtremes(t *testing.T) {
	base := baseScenario()
	var logged = map[Protocol]uint64{}
	var sent = map[Protocol]uint64{}
	base.CheckpointInterval = 5
	for _, proto := range protectedProtocols() {
		base.Protocol = proto
		rep, err := Run(base)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		logged[proto] = rep.TotalLoggedBytes
		for _, r := range rep.Ranks {
			sent[proto] += r.BytesSent
		}
	}
	if logged[ProtocolCoordinated] != 0 {
		t.Fatalf("coordinated logged %d bytes, want 0", logged[ProtocolCoordinated])
	}
	if logged[ProtocolSPBC] == 0 {
		t.Fatalf("SPBC logged nothing")
	}
	if logged[ProtocolFullLog] != sent[ProtocolFullLog] {
		t.Fatalf("full-log must log every sent byte: logged %d, sent %d",
			logged[ProtocolFullLog], sent[ProtocolFullLog])
	}
	if logged[ProtocolSPBC] >= logged[ProtocolFullLog] {
		t.Fatalf("SPBC (%d bytes) must log strictly less than full logging (%d bytes)",
			logged[ProtocolSPBC], logged[ProtocolFullLog])
	}
}
