package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// goldenChaosResult is a hand-fixed chaos report pinning the CHAOS_*.json
// schema, independent of simulator behaviour.
func goldenChaosResult() *ChaosResult {
	return &ChaosResult{
		Name: "golden",
		Suite: []chaos.Result{
			{
				Scenario: "node-crash", Protocol: "spbc", Passed: true,
				CrashedRanks: []int{4, 5}, RolledBackRanks: []int{4, 5, 6, 7},
				RecoveryEvents: 1, ReplayedRecords: 12, CanceledWaves: 1,
				Makespan: 0.0015,
			},
			{
				Scenario: "storage-corrupt-detected", Protocol: "spbc", Passed: true,
				ExpectError: true, RunError: "checkpoint: decode image: bad magic",
				CrashedRanks: []int{2}, StorageInjections: 1, Makespan: 0.0004,
			},
			{
				Scenario: "epoch-switch-crash", Protocol: "spbc-adaptive", Passed: false,
				Violations:   []string{"rollback crossed the epoch boundary"},
				CrashedRanks: []int{5}, RolledBackRanks: []int{4, 5, 6, 7},
				RecoveryEvents: 1, Epochs: 2, Makespan: 0.0021,
			},
		},
		Generated: []ChaosSeedResult{
			{
				Seed:  7,
				Repro: "go run ./cmd/spbcbench -profile chaos -name repro -seed 7 -chaos-seeds 1",
				Result: chaos.Result{
					Scenario: "generated-7", Protocol: "full-log", Passed: true,
					CrashedRanks: []int{1}, RolledBackRanks: []int{1},
					RecoveryEvents: 1, ReplayedRecords: 9, CanceledWaves: 1,
					StorageInjections: 2,
					NetInjections:     38, NetInjectionsPerRule: []int{26, 12},
					Makespan: 0.0011,
				},
			},
		},
		Shrunk: []ChaosShrunk{
			{
				Label:   "epoch-switch-crash",
				Events:  1,
				Runs:    4,
				Literal: "chaos.Scenario{\n\tName: \"epoch-switch-crash\",\n}",
			},
		},
		Failures: 1,
	}
}

// TestChaosGoldenJSON pins the CHAOS_*.json schema; CI archives these files
// and downstream tooling parses them. Regenerate intentionally with
// `go test ./internal/bench -run TestChaosGoldenJSON -update` and audit the
// diff of testdata/chaos_golden.json.
func TestChaosGoldenJSON(t *testing.T) {
	res := goldenChaosResult()
	raw, err := encodeJSON(res)
	if err != nil {
		t.Fatalf("encodeJSON: %v", err)
	}
	path := filepath.Join("testdata", "chaos_golden.json")
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
		t.Fatalf("chaos JSON schema drifted from %s:\ngot:\n%s\nwant:\n%s", path, raw, want)
	}
	parsed := decodeJSON[ChaosResult](t, want)
	if !reflect.DeepEqual(parsed, res) {
		t.Fatalf("golden round trip changed the result:\nin  %+v\nout %+v", res, parsed)
	}
	if failed := parsed.Failed(); len(failed) != 1 {
		t.Fatalf("golden has %d failed rows, want 1: %v", len(failed), failed)
	}
}

// TestRunChaos runs the real catalog plus two generated seeds end to end:
// every row must pass, and the report must account for every scenario.
func TestRunChaos(t *testing.T) {
	res, err := RunChaos("ci", []int64{1, 2}, ChaosOpts{})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if len(res.Suite) != len(chaos.Catalog()) {
		t.Fatalf("suite rows = %d, want %d", len(res.Suite), len(chaos.Catalog()))
	}
	if len(res.Generated) != 2 {
		t.Fatalf("generated rows = %d, want 2", len(res.Generated))
	}
	if res.Failures != 0 {
		t.Fatalf("chaos failures: %v", res.Failed())
	}
	for _, g := range res.Generated {
		want := fmt.Sprintf("go run ./cmd/spbcbench -profile chaos -name repro -seed %d -chaos-seeds 1", g.Seed)
		if g.Repro != want {
			t.Fatalf("repro command = %q, want %q", g.Repro, want)
		}
	}
	dir := t.TempDir()
	path, err := res.WriteFile(dir)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	parsed := decodeJSON[ChaosResult](t, raw)
	if !reflect.DeepEqual(parsed, res) {
		t.Fatal("report round trip changed the result")
	}
}

// TestRunChaosRejectsBadName keeps path fragments out of report names.
func TestRunChaosRejectsBadName(t *testing.T) {
	if _, err := RunChaos("../escape", nil, ChaosOpts{}); err == nil {
		t.Fatal("RunChaos must reject path separators in the run name")
	}
}

// TestRunChaosNetProfile runs two net-profile seeds end to end: the rows must
// pass under the network fabric, carry the NetSeed-bearing repro command, and
// a clean run with shrinking enabled must produce no shrunk artifacts.
func TestRunChaosNetProfile(t *testing.T) {
	res, err := RunChaos("ci-net", []int64{1, 2}, ChaosOpts{Net: true, Shrink: true})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if res.Failures != 0 {
		t.Fatalf("chaos failures: %v", res.Failed())
	}
	for _, g := range res.Generated {
		if !strings.Contains(g.Repro, "-chaos-net") {
			t.Fatalf("net-profile repro command %q does not carry -chaos-net", g.Repro)
		}
	}
	if len(res.Shrunk) != 0 {
		t.Fatalf("clean run produced %d shrunk scenarios", len(res.Shrunk))
	}
	if path, err := res.WriteShrunkFile(t.TempDir()); err != nil || path != "" {
		t.Fatalf("WriteShrunkFile on clean run = (%q, %v), want no file", path, err)
	}
}

// TestWriteShrunkFile pins the shrunk-artifact format CI uploads next to the
// JSON report.
func TestWriteShrunkFile(t *testing.T) {
	res := goldenChaosResult()
	dir := t.TempDir()
	path, err := res.WriteShrunkFile(dir)
	if err != nil {
		t.Fatalf("WriteShrunkFile: %v", err)
	}
	if filepath.Base(path) != "CHAOS_golden_shrunk.txt" {
		t.Fatalf("artifact path = %q, want CHAOS_golden_shrunk.txt", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read artifact: %v", err)
	}
	for _, want := range []string{
		"epoch-switch-crash — shrunk to 1 events in 4 checker runs",
		"chaos.Scenario{",
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("artifact missing %q:\n%s", want, raw)
		}
	}
}
