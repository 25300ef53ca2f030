package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/stats"
)

// Cell is one point of the sweep: its axes, its deterministic seed and fault
// draw, and the measurements of its run against the two baselines (the
// unprotected native run and the failure-free run of the same
// configuration). All times are virtual seconds, all volumes bytes.
type Cell struct {
	Protocol  string       `json:"protocol"`
	Kernel    KernelSpec   `json:"kernel"`
	Ranks     int          `json:"ranks"`
	Clusters  int          `json:"clusters"`
	Steps     int          `json:"steps"`
	Interval  int          `json:"interval"`
	FaultPlan string       `json:"fault_plan"`
	Faults    []core.Fault `json:"faults,omitempty"`
	Seed      int64        `json:"seed"`

	// MakespanS is the virtual makespan of the cell's own run (with faults,
	// if any).
	MakespanS float64 `json:"makespan_s"`
	// NativeMakespanS is the makespan of the unprotected native baseline of
	// the same kernel and rank count.
	NativeMakespanS float64 `json:"native_makespan_s"`
	// FailureFreeMakespanS is the makespan of the fault-free run of this
	// configuration (equal to MakespanS for fault-free cells).
	FailureFreeMakespanS float64 `json:"failure_free_makespan_s"`
	// NormalizedToNative is FailureFreeMakespanS / NativeMakespanS: the
	// protocol's failure-free overhead in the paper's normalized form.
	NormalizedToNative float64 `json:"normalized_to_native"`
	// RecoveryTimeS is MakespanS - FailureFreeMakespanS for fault cells: the
	// virtual time the failures and their recovery cost.
	RecoveryTimeS float64 `json:"recovery_time_s"`
	// BytesSent is the total application + runtime volume sent.
	BytesSent uint64 `json:"bytes_sent"`
	// LoggedBytes is the cumulative sender-logged volume.
	LoggedBytes uint64 `json:"logged_bytes"`
	// LoggedFraction is LoggedBytes / BytesSent.
	LoggedFraction float64 `json:"logged_fraction"`
	// CheckpointSaves / CheckpointBytes count the checkpoint waves.
	CheckpointSaves int    `json:"checkpoint_saves"`
	CheckpointBytes uint64 `json:"checkpoint_bytes"`
	// ReplayedRecords counts log records re-delivered during recovery.
	ReplayedRecords int `json:"replayed_records"`
	// RolledBackRanks counts the ranks that restored state at least once.
	RolledBackRanks int `json:"rolled_back_ranks"`
	// Epochs / EpochSwitches count the policy epochs of the run (1/0 for
	// static policies; adaptive cells report their wave-aligned
	// repartitions).
	Epochs        int `json:"epochs,omitempty"`
	EpochSwitches int `json:"epoch_switches,omitempty"`
	// VerifyMatchesNative reports whether the run's per-rank digests are
	// bit-identical to the native baseline's.
	VerifyMatchesNative bool `json:"verify_matches_native"`
	// Error is the cell's failure, if it could not be measured.
	Error string `json:"error,omitempty"`
}

// fill computes the cell's measurements from its run and its baselines.
func (c *Cell) fill(own, native, ff *runner.Report) {
	c.MakespanS = own.Makespan
	for _, r := range own.Ranks {
		c.BytesSent += r.BytesSent
	}
	c.LoggedBytes = own.TotalLoggedBytes
	if c.BytesSent > 0 {
		c.LoggedFraction = float64(c.LoggedBytes) / float64(c.BytesSent)
	}
	c.CheckpointSaves = own.Engine.CheckpointSaves
	c.CheckpointBytes = own.Engine.CheckpointBytes
	c.ReplayedRecords = own.Engine.ReplayedRecords
	c.RolledBackRanks = len(own.Engine.RolledBackRanks)
	c.Epochs = own.Engine.Epochs
	c.EpochSwitches = own.Engine.EpochSwitches
	c.NativeMakespanS = native.Makespan
	c.VerifyMatchesNative = reflect.DeepEqual(own.Verify, native.Verify)
	c.FailureFreeMakespanS = ff.Makespan
	c.NormalizedToNative = stats.Normalized(ff.Makespan, native.Makespan)
	if len(c.Faults) > 0 {
		c.RecoveryTimeS = own.Makespan - ff.Makespan
	}
}

// Result is the machine-readable output of one sweep, the content of
// BENCH_<name>.json.
type Result struct {
	Name         string `json:"name"`
	Seed         int64  `json:"seed"`
	Steps        int    `json:"steps"`
	RanksPerNode int    `json:"ranks_per_node"`
	Cells        []Cell `json:"cells"`
}

// Errs returns the errors of the failed cells, keyed by cell key.
func (r *Result) Errs() map[string]string {
	out := make(map[string]string)
	for i := range r.Cells {
		if r.Cells[i].Error != "" {
			out[r.Cells[i].key()] = r.Cells[i].Error
		}
	}
	return out
}

// WriteFile writes BENCH_<name>.json into dir and returns the path.
func (r *Result) WriteFile(dir string) (string, error) {
	return writeJSONFile(dir, "BENCH_", r.Name, r)
}

// encodeJSON renders a bench artifact the way its file holds it: indented
// JSON in the type's field order, ending in a newline. The golden tests pin
// these bytes.
func encodeJSON(v any) ([]byte, error) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: marshal %T: %w", v, err)
	}
	return append(raw, '\n'), nil
}

// writeJSONFile writes v's encodeJSON bytes to <prefix><name>.json in dir
// and returns the path; a name that could leave dir is rejected.
func writeJSONFile(dir, prefix, name string, v any) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return "", fmt.Errorf("bench: invalid run name %q", name)
	}
	raw, err := encodeJSON(v)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, prefix+name+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", fmt.Errorf("bench: write %s: %w", path, err)
	}
	return path, nil
}

// Table renders the sweep as an aligned plain-text table, one row per cell.
func (r *Result) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("BENCH %s (steps=%d seed=%d)", r.Name, r.Steps, r.Seed),
		"protocol", "kernel", "ranks", "clusters", "interval", "faults",
		"norm", "logged%", "ckpt", "epochs", "recovery_s", "verify")
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Error != "" {
			t.AddRow(c.Protocol, c.Kernel.Label(), fmt.Sprint(c.Ranks), fmt.Sprint(c.Clusters),
				fmt.Sprint(c.Interval), c.FaultPlan, "ERROR: "+c.Error)
			continue
		}
		verify := "ok"
		if !c.VerifyMatchesNative {
			verify = "DIVERGED"
		}
		epochs := "-"
		if c.Epochs > 0 {
			epochs = fmt.Sprint(c.Epochs)
		}
		t.AddRow(
			c.Protocol,
			c.Kernel.Label(),
			fmt.Sprint(c.Ranks),
			fmt.Sprint(c.Clusters),
			fmt.Sprint(c.Interval),
			c.FaultPlan,
			stats.FormatNormalized(c.NormalizedToNative),
			fmt.Sprintf("%.1f", c.LoggedFraction*100),
			fmt.Sprint(c.CheckpointSaves),
			epochs,
			fmt.Sprintf("%.4f", c.RecoveryTimeS),
			verify,
		)
	}
	return t
}
