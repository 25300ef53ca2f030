package bench

import (
	"reflect"
	"testing"

	"repro/internal/runner"
)

func TestDefaultMatrixMeetsPaperScale(t *testing.T) {
	m := Matrix{Name: "default"}
	if err := m.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	cells, err := m.cells()
	if err != nil {
		t.Fatalf("cells: %v", err)
	}
	if len(cells) < 40 {
		t.Fatalf("default matrix has %d cells, want >= 40 (5 protocols x 3 kernels x configs)", len(cells))
	}
	protos := map[string]bool{}
	kernels := map[string]bool{}
	shifting := false
	for _, c := range cells {
		protos[c.Protocol] = true
		kernels[c.Kernel.Label()] = true
		if c.Kernel.Shifting() {
			shifting = true
		}
	}
	if len(protos) != 5 {
		t.Fatalf("default matrix covers protocols %v, want all 5", protos)
	}
	if len(kernels) < 3 {
		t.Fatalf("default matrix covers kernels %v, want >= 3", kernels)
	}
	if !shifting {
		t.Fatalf("default matrix has no phase-shifting kernel, so the adaptive dimension is unmeasured")
	}
}

func TestCellExpansionIsDeterministic(t *testing.T) {
	a := Matrix{Name: "x"}
	b := Matrix{Name: "x"}
	if err := a.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if err := b.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	ca, errA := a.cells()
	cb, errB := b.cells()
	if errA != nil || errB != nil {
		t.Fatalf("cells: %v / %v", errA, errB)
	}
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("same matrix expanded differently")
	}
	// Different sweep seeds must redraw the fault locations.
	c := Matrix{Name: "x", Seed: 2}
	if err := c.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	cc, err := c.cells()
	if err != nil {
		t.Fatalf("cells: %v", err)
	}
	same := true
	for i := range ca {
		if len(ca[i].Faults) > 0 && !reflect.DeepEqual(ca[i].Faults, cc[i].Faults) {
			same = false
		}
	}
	if same {
		t.Fatalf("changing the sweep seed did not change any fault draw")
	}
	// Collapsed axes: native never checkpoints or faults, coordinated is one
	// group, full-log one group per rank.
	for _, cell := range ca {
		switch runner.Protocol(cell.Protocol) {
		case runner.ProtocolNative:
			if cell.Interval != 0 || len(cell.Faults) != 0 {
				t.Fatalf("native cell with interval/faults: %+v", cell)
			}
		case runner.ProtocolCoordinated:
			if cell.Clusters != 1 {
				t.Fatalf("coordinated cell with %d clusters", cell.Clusters)
			}
		case runner.ProtocolFullLog:
			if cell.Clusters != cell.Ranks {
				t.Fatalf("full-log cell with %d clusters for %d ranks", cell.Clusters, cell.Ranks)
			}
		}
	}
}

func TestMatrixValidation(t *testing.T) {
	bad := []Matrix{
		{Protocols: []runner.Protocol{"bogus"}},
		{Kernels: []KernelSpec{{Name: "fft", Size: 8}}},
		{Kernels: []KernelSpec{{Name: "ring", Size: 0}}},
		{Ranks: []int{1}},
		{Clusters: []int{0}},
		{Intervals: []int{-1}},
		{FaultPlans: []FaultSpec{{Name: "f", Count: -1}}},
		{Steps: 1},
		// More faults than distinct (rank, iteration) locations would make
		// drawFaults spin forever.
		{Ranks: []int{4}, Steps: 8, FaultPlans: []FaultSpec{{Name: "f30", Count: 30}}},
		// Duplicate plan names would collapse distinct plans into one cell.
		{FaultPlans: []FaultSpec{{Name: "f", Count: 1}, {Name: "f", Count: 2}}},
	}
	for i, m := range bad {
		if err := m.normalize(); err == nil {
			t.Fatalf("case %d: invalid matrix accepted: %+v", i, m)
		}
	}
}

// TestDrawFaultsRejectsDegenerateCells pins the two historic failure modes:
// steps < 2 panicked inside rng.Intn (zero-width iteration range), and a
// count above the number of distinct (rank, iteration) pairs spun the
// rejection-sampling loop forever. Both must now come back as errors.
func TestDrawFaultsRejectsDegenerateCells(t *testing.T) {
	if _, err := drawFaults(1, 1, 4, 1); err == nil {
		t.Fatalf("steps=1 accepted; faults need an iteration in [1, steps)")
	}
	if _, err := drawFaults(1, 1, 4, 0); err == nil {
		t.Fatalf("steps=0 accepted")
	}
	if _, err := drawFaults(1, 13, 4, 4); err == nil {
		t.Fatalf("13 faults from 4x3=12 locations accepted; the draw could never terminate")
	}
	if _, err := drawFaults(1, 1, 0, 4); err == nil {
		t.Fatalf("ranks=0 accepted")
	}
	// The exact boundary still works: count == ranks*(steps-1) enumerates
	// every location.
	faults, err := drawFaults(1, 12, 4, 4)
	if err != nil {
		t.Fatalf("exhaustive draw rejected: %v", err)
	}
	if len(faults) != 12 {
		t.Fatalf("exhaustive draw returned %d faults, want 12", len(faults))
	}
	// count=0 stays a no-op regardless of geometry.
	if faults, err := drawFaults(1, 0, 0, 0); err != nil || faults != nil {
		t.Fatalf("count=0 draw = (%v, %v), want (nil, nil)", faults, err)
	}
}

func TestClampedClusterAxisDeduplicates(t *testing.T) {
	m := Matrix{
		Name:      "clamp",
		Protocols: []runner.Protocol{runner.ProtocolSPBC},
		Ranks:     []int{4},
		Clusters:  []int{4, 8}, // both clamp to 4 clusters
	}
	if err := m.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	cells, err := m.cells()
	if err != nil {
		t.Fatalf("cells: %v", err)
	}
	keys := map[string]bool{}
	for _, c := range cells {
		if keys[c.key()] {
			t.Fatalf("duplicate cell %s after cluster clamping", c.key())
		}
		keys[c.key()] = true
		if c.Clusters != 4 {
			t.Fatalf("cell %s has %d clusters for 4 ranks", c.key(), c.Clusters)
		}
	}
}

// TestRunSweepEndToEnd runs a small four-protocol matrix concurrently and
// checks every figure the BENCH files exist for: valid JSON round trip,
// bit-identical verification against native everywhere, and the protocols'
// characteristic logging fractions.
func TestRunSweepEndToEnd(t *testing.T) {
	res, err := Run(Matrix{
		Name:      "test",
		Ranks:     []int{4, 8}, // 8 ranks give the adaptive cells room to repartition (4 nodes, 2 clusters)
		Intervals: []int{3},
		Steps:     8,
		Workers:   4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Cells) < 30 {
		t.Fatalf("sweep produced %d cells, want >= 30", len(res.Cells))
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Error != "" {
			t.Fatalf("cell %s failed: %s", c.key(), c.Error)
		}
		if !c.VerifyMatchesNative {
			t.Fatalf("cell %s diverged from the native result", c.key())
		}
		if c.MakespanS <= 0 || c.NativeMakespanS <= 0 {
			t.Fatalf("cell %s has empty measurements: %+v", c.key(), c)
		}
		if c.NormalizedToNative < 1 {
			t.Fatalf("cell %s is faster than native (%g): protected runs only add overhead",
				c.key(), c.NormalizedToNative)
		}
		if c.RecoveryTimeS < 0 {
			t.Fatalf("cell %s has negative recovery time %g", c.key(), c.RecoveryTimeS)
		}
		switch runner.Protocol(c.Protocol) {
		case runner.ProtocolNative, runner.ProtocolCoordinated:
			if c.LoggedBytes != 0 {
				t.Fatalf("cell %s logged %d bytes, want 0", c.key(), c.LoggedBytes)
			}
		case runner.ProtocolFullLog:
			if c.FaultPlan == "none" && c.LoggedFraction != 1 {
				t.Fatalf("full-log cell %s logged fraction %g, want exactly 1", c.key(), c.LoggedFraction)
			}
		case runner.ProtocolSPBC:
			if c.LoggedFraction <= 0 || c.LoggedFraction >= 1 {
				t.Fatalf("SPBC cell %s logged fraction %g, want in (0, 1)", c.key(), c.LoggedFraction)
			}
		case runner.ProtocolSPBCAdaptive:
			if c.LoggedFraction <= 0 || c.LoggedFraction >= 1 {
				t.Fatalf("adaptive cell %s logged fraction %g, want in (0, 1)", c.key(), c.LoggedFraction)
			}
			if c.Epochs < 1 {
				t.Fatalf("adaptive cell %s reports %d epochs, want >= 1", c.key(), c.Epochs)
			}
			// Repartitioning needs more nodes than clusters; the 8-rank
			// shifting cells must adapt, the 4-rank ones (2 nodes for 2
			// clusters) have nowhere to move.
			nodes := (c.Ranks + res.RanksPerNode - 1) / res.RanksPerNode
			if c.Kernel.Shifting() && c.FaultPlan == "none" && nodes > c.Clusters && c.EpochSwitches == 0 {
				t.Fatalf("adaptive cell %s never repartitioned on the shifting kernel", c.key())
			}
		}
		if c.FaultPlan != "none" {
			if c.RolledBackRanks == 0 {
				t.Fatalf("fault cell %s rolled back nothing", c.key())
			}
			if runner.Protocol(c.Protocol) == runner.ProtocolFullLog && c.RolledBackRanks != len(c.Faults) {
				t.Fatalf("full-log cell %s rolled back %d ranks for %d faults",
					c.key(), c.RolledBackRanks, len(c.Faults))
			}
		}
	}

	raw, err := encodeJSON(res)
	if err != nil {
		t.Fatalf("encodeJSON: %v", err)
	}
	if parsed := decodeJSON[Result](t, raw); !reflect.DeepEqual(parsed, res) {
		t.Fatalf("JSON round trip changed the result")
	}
	if res.Table().String() == "" {
		t.Fatalf("empty table rendering")
	}

	// The adaptive-vs-static regression gate must pass on a healthy sweep:
	// adaptive beats static on the shifting kernel and matches it elsewhere.
	if findings := CompareAdaptiveSweep(res); len(findings) > 0 {
		t.Fatalf("adaptive gate failed on a healthy sweep: %v", findings)
	}
}

// TestCompareAdaptiveSweepCatchesRegressions feeds the gate doctored sweeps
// and expects a finding for each regression class.
func TestCompareAdaptiveSweepCatchesRegressions(t *testing.T) {
	mk := func(proto string, kernel KernelSpec, logged uint64, switches int) Cell {
		return Cell{
			Protocol: proto, Kernel: kernel, Ranks: 4, Clusters: 2, Interval: 3,
			FaultPlan: "none", LoggedBytes: logged, Epochs: switches + 1,
			EpochSwitches: switches, VerifyMatchesNative: true,
		}
	}
	phase := KernelSpec{Name: "phase", Size: 32, PhaseLen: 2}
	ring := KernelSpec{Name: "ring", Size: 16, ReduceEvery: 3}

	healthy := &Result{Cells: []Cell{
		mk(string(runner.ProtocolSPBC), phase, 1000, 0),
		mk(string(runner.ProtocolSPBCAdaptive), phase, 400, 1),
		mk(string(runner.ProtocolSPBC), ring, 500, 0),
		mk(string(runner.ProtocolSPBCAdaptive), ring, 500, 0),
	}}
	if findings := CompareAdaptiveSweep(healthy); len(findings) != 0 {
		t.Fatalf("healthy sweep flagged: %v", findings)
	}

	cases := []struct {
		name   string
		mutate func(r *Result)
	}{
		{"adaptive not better on shifting kernel", func(r *Result) { r.Cells[1].LoggedBytes = 1000 }},
		{"no repartition on shifting kernel", func(r *Result) { r.Cells[1].EpochSwitches = 0 }},
		{"spurious switch on stable kernel", func(r *Result) { r.Cells[3].EpochSwitches = 2 }},
		{"logged mismatch on stable kernel", func(r *Result) { r.Cells[3].LoggedBytes = 900 }},
		{"diverged adaptive cell", func(r *Result) { r.Cells[1].VerifyMatchesNative = false }},
		{"no pairs at all", func(r *Result) { r.Cells = r.Cells[:1] }},
		{"only fault-plan pairs is vacuous", func(r *Result) {
			for i := range r.Cells {
				r.Cells[i].FaultPlan = "f1"
			}
		}},
	}
	for _, tc := range cases {
		r := &Result{Cells: append([]Cell(nil), healthy.Cells...)}
		tc.mutate(r)
		if findings := CompareAdaptiveSweep(r); len(findings) == 0 {
			t.Errorf("%s: gate passed, want a finding", tc.name)
		}
	}
}

// TestRunSweepWriteFile covers the BENCH_<name>.json file contract.
func TestRunSweepWriteFile(t *testing.T) {
	res := &Result{Name: "unit", Seed: 1, Steps: 2, RanksPerNode: 1}
	dir := t.TempDir()
	path, err := res.WriteFile(dir)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if want := dir + "/BENCH_unit.json"; path != want {
		t.Fatalf("path = %q, want %q", path, want)
	}
	if _, err := (&Result{Name: "../escape"}).WriteFile(dir); err == nil {
		t.Fatalf("path traversal in sweep name accepted")
	}
}
