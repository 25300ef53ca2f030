package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenResult is a hand-fixed sweep result pinning the BENCH_*.json schema,
// independent of simulator behaviour.
func goldenResult() *Result {
	return &Result{
		Name:         "golden",
		Seed:         1,
		Steps:        8,
		RanksPerNode: 2,
		Cells: []Cell{
			{
				Protocol: "native", Kernel: KernelSpec{Name: "ring", Size: 16, ReduceEvery: 3},
				Ranks: 4, Clusters: 0, Steps: 8, Interval: 0, FaultPlan: "none", Seed: 42,
				MakespanS: 0.001, NativeMakespanS: 0.001, FailureFreeMakespanS: 0.001,
				NormalizedToNative: 1, BytesSent: 4096, VerifyMatchesNative: true,
			},
			{
				Protocol: "spbc", Kernel: KernelSpec{Name: "solver", Size: 24},
				Ranks: 4, Clusters: 2, Steps: 8, Interval: 3, FaultPlan: "f1",
				Faults: []core.Fault{{Rank: 1, Iteration: 5}}, Seed: 43,
				MakespanS: 0.0015, NativeMakespanS: 0.001, FailureFreeMakespanS: 0.0014,
				NormalizedToNative: 1.4, RecoveryTimeS: 0.0001,
				BytesSent: 4096, LoggedBytes: 1024, LoggedFraction: 0.25,
				CheckpointSaves: 12, CheckpointBytes: 8192,
				ReplayedRecords: 3, RolledBackRanks: 2, Epochs: 1, VerifyMatchesNative: true,
			},
			{
				Protocol: "spbc-adaptive", Kernel: KernelSpec{Name: "phase", Size: 32, PhaseLen: 2},
				Ranks: 8, Clusters: 2, Steps: 8, Interval: 2, FaultPlan: "none", Seed: 45,
				MakespanS: 0.0012, NativeMakespanS: 0.001, FailureFreeMakespanS: 0.0012,
				NormalizedToNative: 1.2,
				BytesSent:          8192, LoggedBytes: 512, LoggedFraction: 0.0625,
				CheckpointSaves: 32, CheckpointBytes: 16384,
				Epochs: 2, EpochSwitches: 1, VerifyMatchesNative: true,
			},
			{
				Protocol: "full-log", Kernel: KernelSpec{Name: "ring", Size: 16, ReduceEvery: 3},
				Ranks: 4, Clusters: 4, Steps: 8, Interval: 3, FaultPlan: "none", Seed: 44,
				Error: "example failure",
			},
		},
	}
}

// TestBenchGoldenJSON pins the BENCH_*.json schema; downstream tooling that
// tracks perf trajectories parses these files. Regenerate intentionally with
// `go test ./internal/bench -run TestBenchGoldenJSON -update` and audit the
// diff of testdata/bench_golden.json.
func TestBenchGoldenJSON(t *testing.T) {
	res := goldenResult()
	raw, err := encodeJSON(res)
	if err != nil {
		t.Fatalf("encodeJSON: %v", err)
	}
	path := filepath.Join("testdata", "bench_golden.json")
	if *update {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(raw) != string(want) {
		t.Fatalf("bench JSON schema drifted from %s:\ngot:\n%s\nwant:\n%s", path, raw, want)
	}
	parsed := decodeJSON[Result](t, want)
	if !reflect.DeepEqual(parsed, res) {
		t.Fatalf("golden round trip changed the result:\nin  %+v\nout %+v", res, parsed)
	}
	if errs := parsed.Errs(); len(errs) != 1 {
		t.Fatalf("golden has %d failed cells, want 1: %v", len(errs), errs)
	}
}

// decodeJSON parses an artifact's bytes back into its type.
func decodeJSON[T any](t *testing.T, raw []byte) *T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return &v
}
