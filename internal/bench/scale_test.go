package bench

import (
	"reflect"
	"testing"

	"repro/internal/runner"
)

// TestRunScaleSmall runs a trimmed two-point sweep per protocol and checks
// the cell schema: sends counted, waves committed, ns/send and heap figures
// populated, JSON round trip stable. The growth gates themselves are not
// asserted here — two tiny worlds in a noisy test process are no measurement
// — but the Violations pass must at least run.
func TestRunScaleSmall(t *testing.T) {
	res, err := RunScale(ScaleMatrix{
		Name:            "unit",
		Ranks:           []int{8, 32},
		RanksPerCluster: 4,
		Steps:           4,
		Interval:        2,
		NsPerSendFactor: -1, // host-timing gates are meaningless at this size
		MemFactor:       -1,
	})
	if err != nil {
		t.Fatalf("RunScale: %v", err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("sweep produced %d cells, want 6 (3 protocols x 2 rank counts)", len(res.Cells))
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Sends == 0 || c.WallNs <= 0 || c.NsPerSend <= 0 {
			t.Fatalf("cell %s/r%d has empty measurements: %+v", c.Protocol, c.Ranks, c)
		}
		if c.PeakHeapBytes == 0 {
			t.Fatalf("cell %s/r%d sampled no heap", c.Protocol, c.Ranks)
		}
		if c.Waves < 1 {
			t.Fatalf("cell %s/r%d committed no checkpoint waves", c.Protocol, c.Ranks)
		}
		switch runner.Protocol(c.Protocol) {
		case runner.ProtocolSPBC:
			if want := (c.Ranks + 3) / 4; c.Clusters != want {
				t.Fatalf("SPBC cell r%d has %d clusters, want %d", c.Ranks, c.Clusters, want)
			}
			if c.Epochs != 0 {
				t.Fatalf("static SPBC cell r%d reports %d epochs, want the field omitted", c.Ranks, c.Epochs)
			}
		case runner.ProtocolFullLog:
			if c.Clusters != c.Ranks {
				t.Fatalf("full-log cell r%d has %d clusters", c.Ranks, c.Clusters)
			}
		case runner.ProtocolSPBCAdaptive:
			if want := (c.Ranks + 3) / 4; c.Clusters != want {
				t.Fatalf("adaptive cell r%d seeded %d clusters, want %d", c.Ranks, c.Clusters, want)
			}
			if c.Epochs < 1 {
				t.Fatalf("adaptive cell r%d went through %d epochs, want >= 1", c.Ranks, c.Epochs)
			}
		}
	}
	if v := res.Violations(); len(v) != 0 {
		t.Fatalf("disabled gates still produced violations: %v", v)
	}

	raw, err := encodeJSON(res)
	if err != nil {
		t.Fatalf("encodeJSON: %v", err)
	}
	if parsed := decodeJSON[ScaleResult](t, raw); !reflect.DeepEqual(parsed, res) {
		t.Fatalf("JSON round trip changed the result")
	}
	if res.Table().String() == "" {
		t.Fatalf("empty table rendering")
	}
}

// TestScaleViolationsGateGrowth feeds doctored results through the gates.
func TestScaleViolationsGateGrowth(t *testing.T) {
	base := ScaleResult{
		NsPerSendFactor: 4, MemFactor: 1,
		Cells: []ScaleCell{
			{Protocol: "spbc", Ranks: 64, NsPerSend: 1000, PeakHeapBytes: 1 << 20},
			{Protocol: "spbc", Ranks: 1024, NsPerSend: 2000, PeakHeapBytes: 12 << 20},
		},
	}
	if v := base.Violations(); len(v) != 0 {
		t.Fatalf("healthy growth flagged: %v", v)
	}
	slow := base
	slow.Cells = append([]ScaleCell(nil), base.Cells...)
	slow.Cells[1].NsPerSend = 5000 // 5x > 4x gate
	if v := slow.Violations(); len(v) != 1 {
		t.Fatalf("5x ns/send growth produced %d violations, want 1: %v", len(v), v)
	}
	fat := base
	fat.Cells = append([]ScaleCell(nil), base.Cells...)
	fat.Cells[1].PeakHeapBytes = 20 << 20 // 20x heap for 16x ranks
	if v := fat.Violations(); len(v) != 1 {
		t.Fatalf("superlinear heap growth produced %d violations, want 1: %v", len(v), v)
	}
}

// TestScaleMatrixValidation rejects degenerate matrices.
func TestScaleMatrixValidation(t *testing.T) {
	bad := []ScaleMatrix{
		{Protocols: []runner.Protocol{runner.ProtocolNative}}, // no waves to measure
		{Ranks: []int{1}},
		{Ranks: []int{64, 64}}, // not strictly increasing
		{RanksPerCluster: -1},
		{Steps: -1},
		{Interval: -1},
		{KernelSize: -2},
	}
	for i, m := range bad {
		if _, err := RunScale(m); err == nil {
			t.Fatalf("case %d: invalid scale matrix accepted: %+v", i, m)
		}
	}
}

// TestScaleWriteFile covers the BENCH_scale_<name>.json file contract.
func TestScaleWriteFile(t *testing.T) {
	res := &ScaleResult{Name: "unit"}
	dir := t.TempDir()
	path, err := res.WriteFile(dir)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if want := dir + "/BENCH_scale_unit.json"; path != want {
		t.Fatalf("path = %q, want %q", path, want)
	}
	if _, err := (&ScaleResult{Name: "../escape"}).WriteFile(dir); err == nil {
		t.Fatalf("path traversal in scale name accepted")
	}
}
