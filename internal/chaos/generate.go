package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/runner"
)

// Profile parameterizes the random schedule generator: the run shape and the
// mix of fault classes to sample.
type Profile struct {
	// Ranks, Steps, Interval shape the run (defaults 4 / 8 / 2).
	Ranks    int
	Steps    int
	Interval int
	// Protocols to sample from (default coordinated, full-log, spbc).
	Protocols []runner.Protocol
	// Crashes is the number of independent crash events (default 1).
	Crashes int
	// CascadeProb chains a follow-up failure into the first recovery.
	CascadeProb float64
	// CommitDrainProb turns the first crash into a fault racing the commit
	// drain (the crashed cluster's waves held undurable until recovery).
	CommitDrainProb float64
	// StorageStallProb adds a stall rule on a checkpoint storage operation.
	StorageStallProb float64
	// StorageOps is the operation mix the storage stall rule samples from; an
	// empty or single-entry mix draws no extra randomness, so the historical
	// stage-only schedules of DefaultProfile stay byte-identical.
	StorageOps []checkpoint.FaultOp
	// ChainProb chains a follow-up crash onto the first recovery's completion
	// or onto a checkpoint capture (AfterRecovery / AfterCapture).
	ChainProb float64
	// DelayProb, ReorderProb, CrossReorderProb and PartitionProb add network
	// perturbation events (partitions only under the SPBC protocols, which
	// have a cluster pair to cut).
	DelayProb        float64
	ReorderProb      float64
	CrossReorderProb float64
	PartitionProb    float64
}

// DefaultProfile is the conservative stress mix the CI seeds run.
func DefaultProfile() Profile {
	return Profile{
		Ranks:            4,
		Steps:            8,
		Interval:         2,
		Protocols:        []runner.Protocol{runner.ProtocolCoordinated, runner.ProtocolFullLog, runner.ProtocolSPBC},
		Crashes:          1,
		CascadeProb:      0.5,
		CommitDrainProb:  0.3,
		StorageStallProb: 0.3,
	}
}

// NetProfile is DefaultProfile widened to the message fabric and the chained
// fault classes: network perturbations on every run class, storage stalls on
// all three operations, and crashes chained from lifecycle hooks.
func NetProfile() Profile {
	p := DefaultProfile()
	p.StorageOps = []checkpoint.FaultOp{checkpoint.OpStage, checkpoint.OpCommit, checkpoint.OpLoad}
	p.ChainProb = 0.3
	p.DelayProb = 0.5
	p.ReorderProb = 0.4
	p.CrossReorderProb = 0.3
	p.PartitionProb = 0.4
	return p
}

func (p *Profile) normalize() {
	if p.Ranks == 0 {
		p.Ranks = 4
	}
	if p.Steps == 0 {
		p.Steps = 8
	}
	if p.Interval == 0 {
		p.Interval = 2
	}
	if len(p.Protocols) == 0 {
		p.Protocols = []runner.Protocol{runner.ProtocolCoordinated, runner.ProtocolFullLog, runner.ProtocolSPBC}
	}
	if p.Crashes == 0 {
		p.Crashes = 1
	}
}

// Generate samples one scenario from the profile. It is deterministic: the
// same (seed, profile) always yields the same schedule, and the scenario is
// plain data, so a failing schedule reproduces exactly from its seed.
func Generate(seed int64, p Profile) Scenario {
	p.normalize()
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Name:     fmt.Sprintf("gen-%d", seed),
		Protocol: p.Protocols[rng.Intn(len(p.Protocols))],
		Ranks:    p.Ranks,
		Steps:    p.Steps,
		Interval: p.Interval,
	}

	// Crash events, each at a distinct (rank, iteration) pair. The first may
	// be upgraded to a commit-drain racer; iteration ranges keep every crash
	// after the first durable wave and inside the run.
	used := make(map[[2]int]bool)
	pick := func(minIter int) core.Fault {
		for {
			f := core.Fault{
				Rank:      rng.Intn(p.Ranks),
				Iteration: minIter + rng.Intn(p.Steps-minIter),
			}
			if !used[[2]int{f.Rank, f.Iteration}] {
				used[[2]int{f.Rank, f.Iteration}] = true
				return f
			}
		}
	}

	var crashes []core.Fault
	if rng.Float64() < p.CommitDrainProb {
		f := pick(p.Interval + 1)
		crashes = append(crashes, f)
		sc.Events = append(sc.Events, During(CommitDrain, f))
	} else {
		f := pick(1)
		crashes = append(crashes, f)
		sc.Events = append(sc.Events, NodeCrash(f.Rank, f.Iteration))
	}
	for i := 1; i < p.Crashes; i++ {
		f := pick(1)
		crashes = append(crashes, f)
		sc.Events = append(sc.Events, NodeCrash(f.Rank, f.Iteration))
	}
	firstCrash := crashes[0].Iteration
	for _, f := range crashes[1:] {
		firstCrash = min(firstCrash, f.Iteration)
	}

	// A cascade chains into the first recovery at the arming boundary itself
	// (the earliest crash iteration), the latest iteration its window admits.
	cascade := rng.Float64() < p.CascadeProb
	if cascade {
		for {
			f := core.Fault{Rank: rng.Intn(p.Ranks), Iteration: firstCrash}
			if !used[[2]int{f.Rank, f.Iteration}] {
				used[[2]int{f.Rank, f.Iteration}] = true
				sc.Events = append(sc.Events, During(Recovery, f))
				break
			}
		}
	}

	if rng.Float64() < p.StorageStallProb {
		op := checkpoint.OpStage
		if len(p.StorageOps) == 1 {
			op = p.StorageOps[0]
		} else if len(p.StorageOps) > 1 {
			op = p.StorageOps[rng.Intn(len(p.StorageOps))]
		}
		sc.Events = append(sc.Events, StorageFault(checkpoint.FaultRule{
			Op:    op,
			Mode:  checkpoint.ModeStall,
			Rank:  -1,
			Count: 2,
			Delay: 200 * time.Microsecond,
		}))
	}

	// Everything below draws after the historical schedule, so the scenarios
	// DefaultProfile generated before the fabric existed keep their exact
	// event prefix for any seed.

	// A chained crash armed from a lifecycle hook: either the completion of
	// the first recovery or a checkpoint capture. Both need a boundary the
	// chained fault can land on; the draw is skipped (but still consumed)
	// when the run shape has none. Under a cascade the capture chain starts
	// at the first wave at or after the arming boundary: an earlier crash
	// would become the first recovery, whose window the cascade then misses.
	if rng.Float64() < p.ChainProb {
		rank := rng.Intn(p.Ranks)
		if rng.Intn(2) == 0 {
			if (firstCrash/p.Interval+1)*p.Interval < p.Steps {
				sc.Events = append(sc.Events, AfterRecovery(rank))
			}
		} else if maxWave := (p.Steps - 1) / p.Interval; maxWave >= 1 {
			wave := 1 + rng.Intn(maxWave)
			if cascade {
				wave = max(wave, (firstCrash+p.Interval-1)/p.Interval)
			}
			if wave <= maxWave {
				sc.Events = append(sc.Events, AfterCapture(rank, wave))
			}
		}
	}

	// Network perturbations, calibrated to the simulated fabric (25us branch
	// latency, hundreds-of-us makespans): delays and spreads of tens of us
	// move real message races without freezing the run.
	if rng.Float64() < p.DelayProb {
		extra := 20e-6 + 80e-6*rng.Float64()
		jitter := 50e-6 * rng.Float64()
		sc.Events = append(sc.Events, Delay(-1, -1, extra, jitter))
	}
	if rng.Float64() < p.ReorderProb {
		window := 2 + rng.Intn(3)
		spread := 40e-6 + 80e-6*rng.Float64()
		sc.Events = append(sc.Events, Reorder(-1, -1, window, spread))
	}
	if rng.Float64() < p.CrossReorderProb {
		sc.Events = append(sc.Events, CrossReorder(-1, 2+rng.Intn(2)))
	}
	isSPBC := sc.Protocol == runner.ProtocolSPBC || sc.Protocol == runner.ProtocolSPBCAdaptive
	if rng.Float64() < p.PartitionProb && isSPBC {
		from := 100e-6 * rng.Float64()
		duration := 100e-6 + 400e-6*rng.Float64()
		sc.Events = append(sc.Events, Partition(0, 1, from, from+duration))
	}
	sc.NetSeed = seed
	return sc
}
