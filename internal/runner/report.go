package runner

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/stats"
)

// ScenarioInfo echoes the resolved scenario parameters into the report.
type ScenarioInfo struct {
	Name               string       `json:"name"`
	Ranks              int          `json:"ranks"`
	RanksPerNode       int          `json:"ranks_per_node"`
	Clusters           int          `json:"clusters,omitempty"`
	Steps              int          `json:"steps"`
	CheckpointInterval int          `json:"checkpoint_interval"`
	Protocol           Protocol     `json:"protocol"`
	Objective          string       `json:"objective"`
	Faults             []core.Fault `json:"faults,omitempty"`
}

// Report is the machine-readable result of one scenario execution: the hook
// for benchmark trajectories (BENCH_*.json) and for comparing runs. All
// times are virtual seconds, all volumes bytes.
type Report struct {
	Scenario ScenarioInfo `json:"scenario"`
	App      string       `json:"app"`
	// Makespan is the virtual time at which the slowest rank finished.
	Makespan float64 `json:"makespan_s"`
	// Ranks holds the per-rank measurements (internal/stats representation).
	Ranks []stats.RankReport `json:"ranks"`
	// AvgCommRatio is the mean fraction of time spent communicating.
	AvgCommRatio float64 `json:"avg_comm_ratio"`
	// TotalLoggedBytes is the cumulative sender-side log volume.
	TotalLoggedBytes uint64 `json:"total_logged_bytes"`
	// LogGrowthAvgMBps / LogGrowthMaxMBps are the Table-1 style per-process
	// log growth rates.
	LogGrowthAvgMBps float64 `json:"log_growth_avg_mbps"`
	LogGrowthMaxMBps float64 `json:"log_growth_max_mbps"`
	// ClusterOf and ClusterSizes describe the partition (SPBC only).
	ClusterOf    []int `json:"cluster_of,omitempty"`
	ClusterSizes []int `json:"cluster_sizes,omitempty"`
	// LoggedBytesPerCluster is the cumulative log volume per sender cluster.
	LoggedBytesPerCluster []uint64 `json:"logged_bytes_per_cluster,omitempty"`
	// SuppressedSends counts application sends skipped during recovery
	// re-execution (Algorithm 1 line 7).
	SuppressedSends uint64 `json:"suppressed_sends"`
	// Epochs is the per-epoch report of an adaptive run (ProtocolSPBCAdaptive
	// only): when each epoch opened, its partition, and the logged fraction
	// while it was active. ClusterOf above is the final epoch's partition;
	// Epochs[0].ClusterOf is the seed.
	Epochs []core.EpochInfo `json:"epochs,omitempty"`
	// Engine holds the checkpoint/recovery counters (SPBC only).
	Engine core.Metrics `json:"engine"`
	// Verify holds the per-rank application digests.
	Verify []float64 `json:"verify"`
}

// RunReport re-materializes the internal/stats aggregate for further
// analysis (growth rates, percentiles, table rendering).
func (r *Report) RunReport() *stats.RunReport {
	return &stats.RunReport{Name: r.Scenario.Name, Ranks: r.Ranks, Elapsed: r.Makespan}
}

// JSON serializes the report (indented, stable field order).
func (r *Report) JSON() ([]byte, error) {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("runner: marshal report: %w", err)
	}
	return raw, nil
}

// WriteJSON writes the JSON report to w.
func (r *Report) WriteJSON(w io.Writer) error {
	raw, err := r.JSON()
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}

// ReadReport parses a report written by WriteJSON.
func ReadReport(raw []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("runner: unmarshal report: %w", err)
	}
	return &r, nil
}
