package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/stats"
)

// metricDef names one metric of BENCHMARK.json; the smoke test checks the
// two lists against the file. BENCHMARK.json may carry only name, unit,
// better and bound, so a per-layer metric's prediction lives here: moves is a
// list of "metric@workload" tokens naming the end-to-end metric it should
// move and where ("all" for every workload, "" for a diagnostic that should
// move none). On every other workload the prediction is "no change".
type metricDef struct {
	name   string
	unit   string
	better string
	moves  string
}

// endToEnd are measured with tracing off. A bounded metric may never be 0,
// so two of the issue's simulated statistics are adapted: log_amplification
// is 1 + the logged fraction (which is exactly 0 on solver_coord), and
// rollback_ranks_per_fault falls back to the expected scope of a single-rank
// failure under the run's final partition where no fault is injected.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "peak_heap_mib", unit: "MiB", better: "lower"},
	{name: "alloc_mib", unit: "MiB", better: "lower"},
	{name: "virtual_overhead_frac", unit: "ratio", better: "lower"},
	{name: "log_amplification", unit: "ratio", better: "lower"},
	{name: "ckpt_staged_mib", unit: "MiB", better: "lower"},
	{name: "restart_load_s", unit: "s", better: "lower"},
	{name: "rollback_ranks_per_fault", unit: "ranks", better: "lower"},
}

// The predictions of the per-layer table.
const (
	wallAll      = "wall_s@all"
	wallHalo     = "wall_s@halo_spbc"
	wallSolver   = "wall_s@solver_coord"
	wallAdaptive = "wall_s@phase_adaptive"
	overheadAll  = "virtual_overhead_frac@all"
	bufMoves     = "alloc_mib@shift_ckpt wall_s@shift_ckpt"
	logMoves     = "log_amplification@shift_ckpt log_amplification@halo_spbc log_amplification@phase_adaptive peak_heap_mib@shift_ckpt wall_s@shift_ckpt"
	waveMoves    = "wall_s@shift_ckpt peak_heap_mib@shift_ckpt"
	recoverMoves = "wall_s@halo_recovery virtual_overhead_frac@halo_recovery"
	writeMoves   = "wall_s@shift_ckpt ckpt_staged_mib@shift_ckpt alloc_mib@shift_ckpt peak_heap_mib@shift_ckpt"
	readMoves    = "restart_load_s@shift_ckpt wall_s@halo_recovery"
	clusterMoves = "wall_s@phase_adaptive setup_s@halo_spbc setup_s@halo_recovery setup_s@phase_adaptive"
)

// perLayer come from the traced run, the microbenchmarks and the ladder.
var perLayer = []metricDef{
	{"app.step.count", "count", "lower", wallAll},
	{"app.step.self_s", "s", "lower", wallAll},
	{"app.snapshot.busy_s", "s", "lower", wallAll},
	{"app.restore.busy_s", "s", "lower", wallAll},

	{"mpi.isend.count", "count", "lower", wallHalo},
	{"mpi.isend.busy_s", "s", "lower", wallHalo},
	{"mpi.irecv.busy_s", "s", "lower", wallHalo},
	{"mpi.wait.blocked_s", "s", "lower", wallHalo},
	{"mpi.sends_total", "count", "lower", wallHalo},
	{"mpi.protocol_sends", "count", "lower", wallHalo},
	{"mpi.eager_round.ns", "ns", "lower", wallHalo},
	{"mpi.collective.count", "count", "lower", wallSolver},
	{"mpi.collective.busy_s", "s", "lower", wallSolver},
	{"mpi.world_build_s", "s", "lower", "setup_s@halo_spbc setup_s@solver_coord"},

	{"simnet.virtual_makespan_s", "s", "lower", overheadAll},
	{"simnet.comm_ratio", "ratio", "lower", overheadAll},

	{"ladder.native.ns_per_send", "ns", "lower", wallHalo},
	{"ladder.recorder.ns_per_send", "ns", "lower", wallHalo},
	{"ladder.protocol.ns_per_send", "ns", "lower", wallHalo},
	{"ladder.waves.ns_per_send", "ns", "lower", wallHalo},
	{"ladder.tiered.ns_per_send", "ns", "lower", wallHalo},
	{"ladder.adaptive.ns_per_send", "ns", "lower", wallHalo},
	{"ladder.gap_frac", "ratio", "lower", ""},
	{"trace.record.delta_ns", "ns", "lower", ""},
	{"core.onsend.delta_ns", "ns", "lower", wallHalo},
	{"core.waves.delta_ns", "ns", "lower", wallHalo},
	{"checkpoint.tiered.delta_ns", "ns", "lower", wallHalo},
	{"core.adaptive.delta_ns", "ns", "lower", wallHalo},

	{"trace.record.ns", "ns", "lower", ""},

	{"buf.pool.gets", "count", "lower", bufMoves},
	{"buf.pool.miss_frac", "ratio", "lower", bufMoves},
	{"buf.copy.ns_per_kib", "ns", "lower", bufMoves},

	{"logstore.logged_records", "count", "lower", logMoves},
	{"logstore.logged_mib", "MiB", "lower", logMoves},
	{"logstore.logged_fraction", "ratio", "lower", logMoves},
	{"logstore.retained_end_mib", "MiB", "lower", logMoves},
	{"logstore.truncated_records", "count", "higher", logMoves},
	{"logstore.append.ns", "ns", "lower", logMoves},

	{"core.engine_build_s", "s", "lower", "setup_s@all"},
	{"core.capture.count", "count", "lower", waveMoves},
	{"core.capture.busy_s", "s", "lower", waveMoves},
	{"core.capture.p50_us", "us", "lower", waveMoves},
	{"core.capture.max_us", "us", "lower", waveMoves},
	{"core.commit.latency_s", "s", "lower", waveMoves},
	{"core.commit.p50_ms", "ms", "lower", waveMoves},
	{"core.commit.max_ms", "ms", "lower", waveMoves},
	{"core.waves", "count", "lower", waveMoves},
	{"core.waves_canceled", "count", "lower", waveMoves},
	{"core.recovery.count", "count", "lower", recoverMoves},
	{"core.recovery.busy_s", "s", "lower", recoverMoves},
	{"core.recovery.replayed_records", "count", "lower", recoverMoves},
	{"core.recovery.replayed_mib", "MiB", "lower", recoverMoves},
	{"core.recovery.restored_checkpoints", "count", "lower", recoverMoves},
	{"core.recovery.suppressed_sends", "count", "lower", recoverMoves},
	{"core.recovery.virtual_s", "s", "lower", recoverMoves},
	{"core.epoch.switches", "count", "lower", wallAdaptive},
	{"core.epoch.switch_gap_s", "s", "higher", wallAdaptive},
	{"core.sim_stat_spread", "count", "lower", ""},

	{"checkpoint.stage.count", "count", "lower", writeMoves},
	{"checkpoint.stage.busy_s", "s", "lower", writeMoves},
	{"checkpoint.stage.mib", "MiB", "lower", writeMoves},
	{"checkpoint.publish.busy_s", "s", "lower", writeMoves},
	{"checkpoint.cold.put.count", "count", "lower", writeMoves},
	{"checkpoint.cold.put.busy_s", "s", "lower", writeMoves},
	{"checkpoint.cold.put.mib", "MiB", "lower", writeMoves},
	{"checkpoint.cold.delete.count", "count", "lower", writeMoves},
	{"checkpoint.demotions", "count", "lower", writeMoves},
	{"checkpoint.quiesce_s", "s", "lower", writeMoves},
	{"checkpoint.delta.images", "count", "higher", writeMoves},
	{"checkpoint.full.images", "count", "lower", writeMoves},
	{"checkpoint.delta.ratio", "ratio", "lower", writeMoves},
	{"checkpoint.encode.ns_per_mib", "ns", "lower", writeMoves},
	{"checkpoint.delta_encode.ns_per_mib", "ns", "lower", writeMoves},
	{"checkpoint.reconstruct.ns_per_mib", "ns", "lower", writeMoves},
	{"checkpoint.load.count", "count", "lower", readMoves},
	{"checkpoint.load.busy_s", "s", "lower", readMoves},
	{"checkpoint.cold.get.count", "count", "lower", readMoves},
	{"checkpoint.cold.get.busy_s", "s", "lower", readMoves},
	{"checkpoint.decode.ns_per_mib", "ns", "lower", readMoves},
	{"checkpoint.replica_fallbacks", "count", "lower", readMoves},

	{"clustering.partition.ns", "ns", "lower", clusterMoves},
	{"clustering.profile_build_s", "s", "lower", clusterMoves},

	{"runner.run_s", "s", "lower", wallAll},
	{"runner.overhead_s", "s", "lower", wallAll},

	{"bench.trace_overhead_frac", "ratio", "lower", ""},
	{"bench.generator_threads", "count", "lower", ""},
}

// stat summarizes the samples of one metric within an invocation. Value is
// the figure the invocation reports: the median, except for setup_s. With
// fewer than 20 samples no upper percentile is meaningful, so none is given.
type stat struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) stat {
	if len(xs) == 0 {
		return stat{Unit: unit}
	}
	med := medianOf(xs)
	return stat{Unit: unit, Value: med, N: len(xs), Median: med, Min: stats.Percentile(xs, 0), Max: stats.Max(xs), Samples: xs}
}

// fastThirdMean is the mean of the fastest third of the samples. A
// sub-millisecond set-up is bimodal on a shared host (a fast mode and a mode
// two to three times slower whose share changes from minute to minute), so
// its median flips between the two. The fastest third stays in the fast mode
// without hanging on the single fastest sample, and with the dozen samples
// of an expensive set-up it still averages four.
func fastThirdMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Mean(s[:max(1, len(s)/3)])
}

// medianOf is the median (0 for no samples): the mean of the two middle
// samples when their number is even. The nearest-rank median of an even
// number of runs is its lower middle sample, which jumps between invocations
// whenever the two middle samples lie apart.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// column projects one figure out of every run.
func column(runs []*runOut, f func(*runOut) float64) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return xs
}

func wallsOf(runs []*runOut) []float64 {
	return column(runs, func(r *runOut) float64 { return r.wallS })
}

func setupsOf(runs []*runOut) []float64 {
	return column(runs, func(r *runOut) float64 { return r.setupS })
}

// stamp identifies the code and the host a result came from.
type stamp struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func newStamp() stamp {
	return stamp{
		Commit:     gitCommit("."),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// gitCommit resolves HEAD by reading .git directly: the benchmark starts no
// process but its own child, and a checkout without .git is "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, ok := strings.CutSuffix(line, " "+ref); ok {
			return sha
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// detail is the full result of one invocation on one workload, written to
// the output directory; the contract line on stdout is a projection of it.
type detail struct {
	Stamp    stamp   `json:"stamp"`
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Seed     int64   `json:"seed"`
	SeedNote string  `json:"seed_note"`
	Seconds  float64 `json:"seconds"`
	Repeats  int     `json:"repeats"`
	Params   params  `json:"params"`

	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	StderrTail []string `json:"stderr_tail,omitempty"`

	EndToEnd map[string]stat `json:"end_to_end,omitempty"`
	// StolenShare is, per timed run, the share of the guest's CPU time the
	// hypervisor withheld while it ran.
	StolenShare []float64          `json:"stolen_share,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	// HotSpans are the aggregated spans of the traced run.
	HotSpans map[string]hotSummary `json:"hot_spans,omitempty"`
	// Sim lists the simulated statistics of every run of the invocation.
	Sim       []simStats `json:"sim_stats,omitempty"`
	TraceFile string     `json:"trace_file,omitempty"`
	Notes     []string   `json:"notes,omitempty"`
}

type hotSummary struct {
	Count   uint64  `json:"count"`
	SumS    float64 `json:"sum_s"`
	MaxUs   float64 `json:"max_us"`
	P50UsLe float64 `json:"p50_us_le"`
	P99UsLe float64 `json:"p99_us_le"`
}

const seedNote = "the seed places halo_recovery's faults (victim rank and offset in every interval); the other four workloads are seed-independent by construction"

func newDetail(o *options, s *spec) *detail {
	return &detail{
		Stamp: newStamp(), Workload: s.name, Traced: o.trace == 1,
		Seed: o.seed, SeedNote: seedNote, Seconds: o.seconds, Repeats: o.repeats, Params: s.params(),
	}
}

func (d *detail) correct() bool { return d.Failed == 0 && d.Attempted > 0 }

// metricValue is one entry of the contract line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the JSON object the driver reads from the last line of
// standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (d *detail) contract() contractLine {
	line := contractLine{Correct: d.correct(), Attempted: max(d.Attempted, 1), Failed: d.Failed, Metrics: map[string]metricValue{}}
	if d.Traced {
		for _, m := range perLayer {
			line.Metrics[m.name] = metricValue{d.PerLayer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.name] = metricValue{d.EndToEnd[m.name].Value, m.unit}
		}
	}
	return line
}
