package clustering_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/clustering"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// shape is a partitioning problem as a benchmark workload poses it: the
// profile of a 2-step native run of a kernel, and a cluster count.
type shape struct {
	name              string
	factory           model.AppFactory
	ranks, perNode, k int
}

var (
	// phaseShift is phase_adaptive's set-up: 256 ranks on 128 nodes, k=16.
	phaseShift = shape{"phase_shift_256", app.NewPhaseShift(256, 8), 256, 2, 16}
	// ring1024 is halo_recovery's set-up: 1024 ranks on 32 nodes, k=4.
	ring1024 = shape{"ring_1024", app.NewRing(4, 0), 1024, 32, 4}
	// ring4096 shows the scaling in nodes: 4096 ranks on 256 nodes, k=16.
	ring4096 = shape{"ring_4096", app.NewRing(4, 0), 4096, 16, 16}
)

var profiles sync.Map // shape name → *clustering.Profile

// profile returns the shape's communication profile, built once per binary
// the way the runner builds it: a native run, then core.BuildProfile.
func (s shape) profile(tb testing.TB) *clustering.Profile {
	tb.Helper()
	if p, ok := profiles.Load(s.name); ok {
		return p.(*clustering.Profile)
	}
	cost := simnet.DefaultCostModel()
	cost.RanksPerNode = s.perNode
	w, err := mpi.NewWorld(s.ranks, cost)
	if err != nil {
		tb.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		a := s.factory()
		if err := a.Init(model.NewNativeProcess(p)); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if err := a.Step(i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatalf("%s: profiling run: %v", s.name, err)
	}
	p := core.BuildProfile(w, s.perNode)
	profiles.Store(s.name, p)
	return p
}

// TestPartitionMatchesReferenceOnBenchmarkShapes checks the incremental
// refinement against the full-rescore reference on the two profiles the
// benchmark workloads actually partition.
func TestPartitionMatchesReferenceOnBenchmarkShapes(t *testing.T) {
	for _, s := range []shape{phaseShift, ring1024} {
		p := s.profile(t)
		for _, obj := range []clustering.Objective{clustering.MinTotalLogged, clustering.MinMaxPerProcess} {
			got, err := clustering.Partition(p, s.k, obj)
			if err != nil {
				t.Fatalf("%s %s: %v", s.name, obj, err)
			}
			want, err := clustering.ReferencePartition(p, s.k, obj)
			if err != nil {
				t.Fatalf("%s %s: reference: %v", s.name, obj, err)
			}
			if !clustering.SameAssignment(got, want) {
				t.Fatalf("%s %s: Partition diverged from the full-rescore reference:\ngot  %v\nwant %v", s.name, obj, got, want)
			}
		}
	}
}

// TestAllocGuardPartition pins Partition's allocations to a constant: the
// node-level tables are flat and no candidate swap allocates, so the count
// cannot grow with passes or candidate pairs (8 128 pairs per pass here).
func TestAllocGuardPartition(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guards are meaningless under the race detector")
	}
	p := phaseShift.profile(t)
	limit := float64(p.Nodes() + 32)
	for _, obj := range []clustering.Objective{clustering.MinTotalLogged, clustering.MinMaxPerProcess} {
		got := testing.AllocsPerRun(5, func() {
			if _, err := clustering.Partition(p, phaseShift.k, obj); err != nil {
				t.Fatal(err)
			}
		})
		if got > limit {
			t.Errorf("%s: Partition allocates %.0f objects, want <= %.0f (nodes + 32): "+
				"a per-candidate or per-node allocation crept back in", obj, got, limit)
		}
	}
}

func BenchmarkPartition(b *testing.B) {
	for _, s := range []shape{phaseShift, ring1024, ring4096} {
		b.Run(fmt.Sprintf("%s/k=%d", s.name, s.k), func(b *testing.B) {
			p := s.profile(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := clustering.Partition(p, s.k, clustering.MinTotalLogged); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
