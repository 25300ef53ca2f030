package bench

// The checkpoint-volume gate: what the tiered delta store buys. Each shape
// runs the same scenario twice — once over a delta-enabled TieredStorage,
// once over the plain in-memory full-image store — with a mid-run fault so
// both runs recover, then checks only facts that do not depend on host speed:
// staged bytes below the full-image floor, bit-identical recovery, no lost
// wave, and a delta ratio within slack of its recorded value.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/app"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/runner"
)

const volumeRanks, volumeSteps = 8, 12

// volumeScenario builds one half of the paired run: a checkpoint every 2
// steps and a fault on rank 1 halfway through.
func volumeScenario(proto runner.Protocol, factory model.AppFactory, st checkpoint.Storage) runner.Scenario {
	sc := runner.Scenario{
		Name:               fmt.Sprintf("volume-%s", proto),
		App:                factory,
		Ranks:              volumeRanks,
		Steps:              volumeSteps,
		CheckpointInterval: 2,
		Protocol:           proto,
		Storage:            st,
		// A mid-run fault makes both runs recover, so the digest comparison
		// covers the rollback path, not just failure-free convergence.
		Faults: []core.Fault{{Rank: 1, Iteration: volumeSteps / 2}},
	}
	if proto == runner.ProtocolSPBC {
		// A fixed contiguous split keeps the pair on one partition (and skips
		// the profiling pre-run).
		sc.ClusterOf = make([]int, volumeRanks)
		for r := volumeRanks / 2; r < volumeRanks; r++ {
			sc.ClusterOf[r] = 1
		}
	}
	return sc
}

// TestVolumeDeltaBeatsFullImage is the checkpoint-volume gate over the four
// protocol × kernel shapes.
//
// maxRatio is the delta ratio (staged over full-equivalent bytes) recorded
// for the shape plus 0.15. The slack is not for machine variance in the
// codec, which is deterministic: it is for the input. A capture includes the
// sender-log records the committer has not truncated yet, and which arrivals
// land in a channel snapshot is host order, so both byte counts move from
// run to run (spbc/phase-shift read 0.25–0.52 over 30 runs).
func TestVolumeDeltaBeatsFullImage(t *testing.T) {
	for _, sh := range []struct {
		proto    runner.Protocol
		workload string
		factory  model.AppFactory
		maxRatio float64
	}{
		{runner.ProtocolSPBC, "ring", app.NewRing(512, 3), 0.976},
		{runner.ProtocolSPBC, "phase-shift", app.NewPhaseShift(512, 2), 0.686},
		{runner.ProtocolCoordinated, "ring", app.NewRing(512, 3), 0.918},
		{runner.ProtocolCoordinated, "phase-shift", app.NewPhaseShift(512, 2), 0.795},
	} {
		t.Run(fmt.Sprintf("%s/%s", sh.proto, sh.workload), func(t *testing.T) {
			tier := checkpoint.NewTieredStorage(checkpoint.TieredConfig{})
			delta, err := runner.Run(volumeScenario(sh.proto, sh.factory, tier))
			if err != nil {
				t.Fatalf("delta run: %v", err)
			}
			tier.Quiesce()
			full, err := runner.Run(volumeScenario(sh.proto, sh.factory, checkpoint.NewMemoryStorage()))
			if err != nil {
				t.Fatalf("full-image run: %v", err)
			}

			m := delta.Engine
			if m.DeltaImages == 0 {
				t.Fatalf("no delta frames committed: %d delta, %d full images", m.DeltaImages, m.FullImages)
			}
			if m.BytesStaged >= m.BytesFullEquiv {
				t.Errorf("staged %dB not below the full-image floor %dB", m.BytesStaged, m.BytesFullEquiv)
			}
			if m.DeltaRatio > sh.maxRatio {
				t.Errorf("delta ratio %.3f above %.3f: bytes per wave regressed", m.DeltaRatio, sh.maxRatio)
			}
			if !reflect.DeepEqual(delta.Verify, full.Verify) {
				t.Errorf("delta-store run diverged from the full-image run:\n%v\n%v", delta.Verify, full.Verify)
			}
			if err := tier.LostErr(); err != nil {
				t.Fatalf("tier lost a wave: %v", err)
			}
			for r := 0; r < volumeRanks; r++ {
				if _, ok, err := tier.Load(r); err != nil || !ok {
					t.Errorf("rank %d: load from the tier: ok=%v err=%v", r, ok, err)
				}
			}
		})
	}
}
