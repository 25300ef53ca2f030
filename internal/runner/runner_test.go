package runner

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/trace"
)

func baseScenario() Scenario {
	return Scenario{
		Name:         "test",
		App:          app.NewRing(16, 3),
		Ranks:        8,
		RanksPerNode: 2,
		Clusters:     2,
		Steps:        10,
	}
}

func TestRunNativeVsSPBCSameResults(t *testing.T) {
	sc := baseScenario()
	sc.Protocol = ProtocolNative
	native, err := Run(sc)
	if err != nil {
		t.Fatalf("native run: %v", err)
	}
	sc.Protocol = ProtocolSPBC
	sc.CheckpointInterval = 5
	spbc, err := Run(sc)
	if err != nil {
		t.Fatalf("spbc run: %v", err)
	}
	if !reflect.DeepEqual(native.Verify, spbc.Verify) {
		t.Fatalf("same kernel must produce identical results under both protocols:\nnative %v\nspbc   %v",
			native.Verify, spbc.Verify)
	}
	if native.TotalLoggedBytes != 0 {
		t.Fatalf("native baseline logged %d bytes", native.TotalLoggedBytes)
	}
	if spbc.TotalLoggedBytes == 0 {
		t.Fatalf("SPBC run logged nothing")
	}
	if spbc.Engine.CheckpointSaves == 0 {
		t.Fatalf("SPBC run took no checkpoints")
	}
	if len(spbc.ClusterOf) != 8 || len(spbc.ClusterSizes) != 2 {
		t.Fatalf("partition missing from report: %v %v", spbc.ClusterOf, spbc.ClusterSizes)
	}
	// The partitioner must respect node placement (2 ranks per node).
	for r := 0; r < 8; r += 2 {
		if spbc.ClusterOf[r] != spbc.ClusterOf[r+1] {
			t.Fatalf("ranks %d and %d share a node but not a cluster: %v", r, r+1, spbc.ClusterOf)
		}
	}
	if spbc.Makespan <= native.Makespan {
		t.Fatalf("SPBC adds logging and checkpoint overhead: makespan %g <= native %g",
			spbc.Makespan, native.Makespan)
	}
}

func TestRunFaultScenarioRecovers(t *testing.T) {
	sc := baseScenario()
	sc.CheckpointInterval = 4
	ff, err := Run(sc)
	if err != nil {
		t.Fatalf("failure-free run: %v", err)
	}
	sc.Faults = []core.Fault{{Rank: 1, Iteration: 6}}
	faulty, err := Run(sc)
	if err != nil {
		t.Fatalf("faulty run: %v", err)
	}
	if !reflect.DeepEqual(ff.Verify, faulty.Verify) {
		t.Fatalf("recovered run diverged:\nfailure-free %v\nrecovered    %v", ff.Verify, faulty.Verify)
	}
	if faulty.Engine.RecoveryEvents != 1 {
		t.Fatalf("recovery events = %d, want 1", faulty.Engine.RecoveryEvents)
	}
	if faulty.Engine.ReplayedRecords == 0 {
		t.Fatalf("recovery replayed nothing from the log stores")
	}
	if faulty.SuppressedSends == 0 {
		t.Fatalf("recovery suppressed no re-sends")
	}
	if n := len(faulty.Engine.RolledBackRanks); n == 0 || n == faulty.Scenario.Ranks {
		t.Fatalf("rollback must be cluster-local, rolled back %d of %d ranks",
			n, faulty.Scenario.Ranks)
	}
	if faulty.Makespan <= ff.Makespan {
		t.Fatalf("recovery costs virtual time: %g <= %g", faulty.Makespan, ff.Makespan)
	}
}

func TestRunReportJSONRoundTrip(t *testing.T) {
	sc := baseScenario()
	sc.CheckpointInterval = 5
	sc.Faults = []core.Fault{{Rank: 7, Iteration: 7}}
	rep, err := Run(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	parsed, err := ReadReport(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if !reflect.DeepEqual(parsed, rep) {
		t.Fatalf("JSON round trip changed the report:\nin  %+v\nout %+v", rep, parsed)
	}
	if parsed.Scenario.Protocol != ProtocolSPBC || parsed.App != "ring-stencil" {
		t.Fatalf("scenario echo wrong: %+v", parsed.Scenario)
	}
	rr := parsed.RunReport()
	if rr.MaxElapsed() != parsed.Makespan {
		t.Fatalf("stats view elapsed %g != makespan %g", rr.MaxElapsed(), parsed.Makespan)
	}
}

func TestRunWithRecorderExposesTrace(t *testing.T) {
	sc := baseScenario()
	rec := trace.NewRecorder(sc.Ranks)
	sc.Recorder = rec
	sc.CheckpointInterval = 5
	if _, err := Run(sc); err != nil {
		t.Fatalf("run: %v", err)
	}
	if rec.TotalEvents() == 0 {
		t.Fatalf("recorder saw no events")
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{},                                 // no app
		{App: app.NewRing(4, 0)},           // no ranks
		{App: app.NewRing(4, 0), Ranks: 2}, // no steps
	}
	for i, sc := range bad {
		if _, err := Run(sc); err == nil {
			t.Fatalf("case %d: invalid scenario accepted", i)
		}
	}
	sc := baseScenario()
	sc.Protocol = ProtocolNative
	sc.Faults = []core.Fault{{Rank: 0, Iteration: 1}}
	if _, err := Run(sc); err == nil {
		t.Fatalf("native protocol with faults must be rejected")
	}
	sc = baseScenario()
	sc.Protocol = "bogus"
	if _, err := Run(sc); err == nil {
		t.Fatalf("unknown protocol must be rejected")
	}
}

func TestRunSolverUnderBothProtocols(t *testing.T) {
	sc := Scenario{App: app.NewSolver(16), Ranks: 4, Steps: 8}
	sc.Protocol = ProtocolNative
	native, err := Run(sc)
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	sc.Protocol = ProtocolSPBC
	sc.Clusters, sc.CheckpointInterval = 2, 4
	spbc, err := Run(sc)
	if err != nil {
		t.Fatalf("spbc: %v", err)
	}
	if !reflect.DeepEqual(native.Verify, spbc.Verify) {
		t.Fatalf("solver diverged between protocols: %v vs %v", native.Verify, spbc.Verify)
	}
}
