package runner

import (
	"reflect"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/trace"
)

// phaseScenario is the adaptive-clustering stress configuration: a
// phase-shifting kernel whose two regimes want opposite partitions, with a
// preset contiguous seed so the epoch trajectory is pinned.
func phaseScenario(steps int) Scenario {
	return Scenario{
		Name:               "adaptive",
		App:                app.NewPhaseShift(32, 2),
		Ranks:              8,
		RanksPerNode:       2,
		Clusters:           2,
		Steps:              steps,
		CheckpointInterval: 2,
		ClusterOf:          []int{0, 0, 0, 0, 1, 1, 1, 1},
	}
}

// TestAdaptiveEquivalenceAcrossEpochSwitch extends the cross-protocol
// equivalence stress over an epoch switch: a fault lands in the first wave
// after a repartition, and the recovered run must stay bit-identical to the
// native execution — result digests and filtered per-channel message streams
// alike. (Acceptance: "a fault injected immediately after an epoch switch
// recovers with bit-identical replay"; CI runs this under -race.)
func TestAdaptiveEquivalenceAcrossEpochSwitch(t *testing.T) {
	const steps = 8
	base := phaseScenario(steps)

	recNative := trace.NewRecorder(base.Ranks)
	nat := base
	nat.ClusterOf = nil
	nat.Protocol = ProtocolNative
	nat.Recorder = recNative
	native, err := Run(nat)
	if err != nil {
		t.Fatalf("native: %v", err)
	}

	// The window at boundary 4 holds the first rotation phase, so epoch 1
	// opens with the wave at iteration 4; the fault at iteration 5 lands in
	// the first interval of the new epoch.
	rec := trace.NewRecorder(base.Ranks)
	adapt := base
	adapt.Protocol = ProtocolSPBCAdaptive
	adapt.Faults = []core.Fault{{Rank: 0, Iteration: 5}}
	adapt.Recorder = rec
	rep, err := Run(adapt)
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	if !reflect.DeepEqual(rep.Verify, native.Verify) {
		t.Fatalf("adaptive recovery diverged from native:\n%v\n%v", rep.Verify, native.Verify)
	}
	if err := trace.CheckFilteredChannelDeterminism(recNative, rec, appTraffic); err != nil {
		t.Fatalf("channel streams diverged across the epoch switch: %v", err)
	}
	if rep.Engine.EpochSwitches < 1 {
		t.Fatalf("scenario must repartition before the fault, got %d switches", rep.Engine.EpochSwitches)
	}
	if len(rep.Epochs) != rep.Engine.Epochs {
		t.Fatalf("report has %d epoch entries for %d epochs", len(rep.Epochs), rep.Engine.Epochs)
	}
	if rep.Epochs[1].FromIteration != 4 {
		t.Fatalf("epoch 1 opened at iteration %d, want 4", rep.Epochs[1].FromIteration)
	}
	// The fault must have rolled back a cluster of the new partition.
	newPart := rep.ClusterOf
	var want []int
	for r, c := range newPart {
		if c == newPart[0] {
			want = append(want, r)
		}
	}
	if !reflect.DeepEqual(rep.Engine.RolledBackRanks, want) {
		t.Fatalf("rolled back %v, want the new-epoch cluster %v", rep.Engine.RolledBackRanks, want)
	}
}

// TestAdaptiveBeatsStaticOnPhaseShift pins the adaptive win: on the
// phase-shifting kernel no static partition is right in both regimes, so the
// adaptive run must log strictly fewer bytes than the static run from the
// same seed — while staying bit-identical to native.
func TestAdaptiveBeatsStaticOnPhaseShift(t *testing.T) {
	const steps = 12
	base := phaseScenario(steps)

	nat := base
	nat.ClusterOf = nil
	nat.Protocol = ProtocolNative
	native, err := Run(nat)
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	base.Protocol = ProtocolSPBC
	static, err := Run(base)
	if err != nil {
		t.Fatalf("static: %v", err)
	}
	base.Protocol = ProtocolSPBCAdaptive
	adaptive, err := Run(base)
	if err != nil {
		t.Fatalf("adaptive: %v", err)
	}
	for _, rep := range []*Report{static, adaptive} {
		if !reflect.DeepEqual(rep.Verify, native.Verify) {
			t.Fatalf("%s diverged from native", rep.Scenario.Protocol)
		}
	}
	if adaptive.TotalLoggedBytes >= static.TotalLoggedBytes {
		t.Fatalf("adaptive logged %d bytes, static %d: adaptivity must win on the shifting workload",
			adaptive.TotalLoggedBytes, static.TotalLoggedBytes)
	}
	if adaptive.Engine.EpochSwitches == 0 {
		t.Fatalf("adaptive run never repartitioned")
	}
	// The report's epoch entries must partition the run's logged volume.
	var sum uint64
	for _, e := range adaptive.Epochs {
		sum += e.LoggedBytes
	}
	if sum != adaptive.TotalLoggedBytes {
		t.Fatalf("per-epoch logged bytes sum to %d, run total is %d", sum, adaptive.TotalLoggedBytes)
	}
}

// TestAdaptiveConvergesOnStableKernels pins the hysteresis half of the
// design: on stable workloads the live profile never justifies a migration,
// so the adaptive run keeps the seed epoch and is byte-for-byte the static
// run (zero extra epochs after warm-up).
func TestAdaptiveConvergesOnStableKernels(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory func() Scenario
	}{
		{"ring", func() Scenario { return baseScenario() }},
		{"solver", func() Scenario {
			s := baseScenario()
			s.App = app.NewSolver(24)
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.factory()
			base.CheckpointInterval = 4
			base.Protocol = ProtocolSPBC
			static, err := Run(base)
			if err != nil {
				t.Fatalf("static: %v", err)
			}
			base.Protocol = ProtocolSPBCAdaptive
			adaptive, err := Run(base)
			if err != nil {
				t.Fatalf("adaptive: %v", err)
			}
			if adaptive.Engine.EpochSwitches != 0 {
				t.Fatalf("stable kernel caused %d epoch switches, want 0", adaptive.Engine.EpochSwitches)
			}
			if !reflect.DeepEqual(adaptive.ClusterOf, static.ClusterOf) {
				t.Fatalf("adaptive kept %v, static chose %v: the seed must converge to the static answer",
					adaptive.ClusterOf, static.ClusterOf)
			}
			if adaptive.TotalLoggedBytes != static.TotalLoggedBytes {
				t.Fatalf("zero-switch adaptive logged %d bytes, static %d: runs must be identical",
					adaptive.TotalLoggedBytes, static.TotalLoggedBytes)
			}
			if !reflect.DeepEqual(adaptive.Verify, static.Verify) {
				t.Fatalf("zero-switch adaptive verify diverged from static")
			}
		})
	}
}

// TestAdaptiveScenarioValidation covers the new scenario surface.
func TestAdaptiveScenarioValidation(t *testing.T) {
	// Adaptive options under a non-adaptive protocol are rejected.
	bad := baseScenario()
	bad.Adaptive = &AdaptiveOptions{}
	bad.Protocol = ProtocolSPBC
	if _, err := Run(bad); err == nil {
		t.Fatalf("adaptive options under %s accepted", ProtocolSPBC)
	}
	// The adaptive protocol defaults its checkpoint interval (epochs need
	// waves) and reports the preset seed as epoch 0.
	sc := phaseScenario(8)
	sc.CheckpointInterval = 0
	sc.Protocol = ProtocolSPBCAdaptive
	rep, err := Run(sc)
	if err != nil {
		t.Fatalf("adaptive without explicit interval: %v", err)
	}
	if rep.Scenario.CheckpointInterval == 0 {
		t.Fatalf("adaptive scenario did not default the checkpoint interval")
	}
	if len(rep.Epochs) == 0 || !reflect.DeepEqual(rep.Epochs[0].ClusterOf, []int{0, 0, 0, 0, 1, 1, 1, 1}) {
		t.Fatalf("epoch 0 must be the preset seed, got %+v", rep.Epochs)
	}
}
