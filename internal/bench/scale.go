package bench

// The scale profile measures how the simulator's host-side cost grows with
// the world size — the axis the paper's exascale-adjacent claims live on and
// the one the sweep matrix (tens of ranks) never exercises. Each cell runs a
// ring-stencil workload on a full core.Engine at one rank count and records
// two host-resource figures: wall-clock nanoseconds per simulated send (the
// runtime's per-operation cost, which must stay flat as the world grows) and
// the peak heap the run touched (which must grow sublinearly in ranks — a
// per-rank footprint that is itself O(world), like a dense world-sized
// clone per message, shows up here as a superlinear curve). Both figures
// are gated against the smallest cell of the sweep, so
// BENCH_scale_<name>.json is a regression fence on growth with the world
// size; it does not claim absolute speed, which benchmark/ measures.
//
// Cells drive the engine directly rather than through the runner: the
// runner's SPBC path adds a profiling pre-run, which belongs to the
// small-scale harness, not to a 65536-rank cell.
// The spbc-adaptive cells seed the adaptive controller with the same block
// partition and set one node per cluster, so repartitioning works at
// cluster granularity and `clustering.Partition` takes its O(ranks) path —
// together with the sparse live profile this is what lets the sweep carry
// the adaptive protocol to the same world sizes as static SPBC.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/app"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Default gates: ns/send of the largest cell must stay within
// defaultNsPerSendFactor of the smallest cell's, and peak heap may grow at
// most defaultMemFactor times as fast as the rank count (ratio of ratios), so
// the per-rank footprint must not grow with the world size. The mem factor
// carries a 25% tolerance: the smallest cells peak below a couple of MiB,
// where the sampler's granularity and runtime overhead wobble the per-rank
// figure ~10% run to run — a real superlinear footprint (any O(world)
// per-rank state) blows through 1.25x within one 4x rank step.
const (
	defaultNsPerSendFactor = 4.0
	defaultMemFactor       = 1.25
)

// ScaleMatrix declares one scale profile run.
type ScaleMatrix struct {
	// Name labels the profile; the output file is BENCH_scale_<Name>.json.
	Name string `json:"name"`
	// Protocols to sweep. Defaults to SPBC, full-log and spbc-adaptive:
	// the group structures whose bookkeeping scales differently (few large
	// clusters, one cluster per rank, and live-profile-driven clusters).
	Protocols []runner.Protocol `json:"protocols"`
	// Ranks is the world-size axis. Defaults to
	// {64, 256, 1024, 4096, 16384, 65536}.
	Ranks []int `json:"ranks"`
	// RanksPerCluster sizes the SPBC block clusters (cluster i holds ranks
	// [i*rpc, (i+1)*rpc)). Defaults to 16.
	RanksPerCluster int `json:"ranks_per_cluster"`
	// Steps is the iteration count per cell. Defaults to 4.
	Steps int `json:"steps"`
	// Interval is the checkpoint interval. Defaults to 2, so every cell
	// exercises the wave pipeline (capture, commit, log GC) at scale.
	Interval int `json:"interval"`
	// KernelSize is the ring stencil's per-rank cell count. Defaults to 4.
	KernelSize int `json:"kernel_size"`
	// NsPerSendFactor gates ns/send growth: every cell must stay within this
	// factor of the protocol's smallest cell. 0 selects the default (4.0),
	// negative disables the gate.
	NsPerSendFactor float64 `json:"ns_per_send_factor,omitempty"`
	// MemFactor gates heap growth: heap(cell)/heap(smallest) must not exceed
	// MemFactor × ranks(cell)/ranks(smallest). 0 selects the default (1.25 —
	// at most linear plus sampling tolerance, i.e. a flat per-rank
	// footprint), negative disables.
	MemFactor float64 `json:"mem_factor,omitempty"`
}

// normalize applies defaults and validates the matrix.
func (m *ScaleMatrix) normalize() error {
	if m.Name == "" {
		m.Name = "scale"
	}
	if len(m.Protocols) == 0 {
		m.Protocols = []runner.Protocol{runner.ProtocolSPBC, runner.ProtocolFullLog, runner.ProtocolSPBCAdaptive}
	}
	for _, p := range m.Protocols {
		switch p {
		case runner.ProtocolSPBC, runner.ProtocolFullLog, runner.ProtocolCoordinated,
			runner.ProtocolSPBCAdaptive:
		default:
			return fmt.Errorf("bench: scale profile supports spbc, full-log, coordinated and spbc-adaptive, not %q", p)
		}
	}
	if len(m.Ranks) == 0 {
		m.Ranks = []int{64, 256, 1024, 4096, 16384, 65536}
	}
	for i, r := range m.Ranks {
		if r < 2 {
			return fmt.Errorf("bench: scale ranks axis needs values >= 2, got %d", r)
		}
		if i > 0 && r <= m.Ranks[i-1] {
			return fmt.Errorf("bench: scale ranks axis must be strictly increasing, got %v", m.Ranks)
		}
	}
	if m.RanksPerCluster == 0 {
		m.RanksPerCluster = 16
	}
	if m.RanksPerCluster < 1 {
		return fmt.Errorf("bench: ranks per cluster must be positive, got %d", m.RanksPerCluster)
	}
	if m.Steps == 0 {
		m.Steps = 4
	}
	if m.Steps < 1 {
		return fmt.Errorf("bench: scale steps must be positive, got %d", m.Steps)
	}
	if m.Interval < 0 {
		return fmt.Errorf("bench: negative checkpoint interval %d", m.Interval)
	}
	if m.Interval == 0 {
		m.Interval = 2
	}
	if m.KernelSize == 0 {
		m.KernelSize = 4
	}
	if m.KernelSize < 1 {
		return fmt.Errorf("bench: scale kernel size must be positive, got %d", m.KernelSize)
	}
	if m.NsPerSendFactor == 0 {
		m.NsPerSendFactor = defaultNsPerSendFactor
	}
	if m.MemFactor == 0 {
		m.MemFactor = defaultMemFactor
	}
	return nil
}

// ScaleCell is one measured point: a protocol at a world size.
type ScaleCell struct {
	Protocol string `json:"protocol"`
	Ranks    int    `json:"ranks"`
	Clusters int    `json:"clusters"`
	Steps    int    `json:"steps"`
	Interval int    `json:"interval"`
	// Sends is the number of simulated sends the run performed (application
	// and protocol traffic).
	Sends uint64 `json:"sends"`
	// WallNs is the host wall-clock time of the run; NsPerSend is
	// WallNs/Sends — the figure the growth gate is on.
	WallNs    int64   `json:"wall_ns"`
	NsPerSend float64 `json:"ns_per_send"`
	// PeakHeapBytes is the peak live heap the run touched above the pre-run
	// baseline (sampled; a lower bound). HeapBytesPerRank is the same per
	// rank — flat or falling across the sweep means sublinear total growth.
	PeakHeapBytes    uint64  `json:"peak_heap_bytes"`
	HeapBytesPerRank float64 `json:"heap_bytes_per_rank"`
	// Waves is the number of checkpoint waves durably committed, pinning
	// that the cell exercised the pipeline it claims to measure.
	Waves int `json:"waves"`
	// Epochs is the number of clustering epochs the run went through;
	// only set for the spbc-adaptive protocol (static protocols omit it).
	Epochs int `json:"epochs,omitempty"`
}

// ScaleResult is the machine-readable output of one scale profile, the
// content of BENCH_scale_<name>.json.
type ScaleResult struct {
	Name            string      `json:"name"`
	GoMaxProcs      int         `json:"gomaxprocs"`
	GoVersion       string      `json:"go_version"`
	RanksPerCluster int         `json:"ranks_per_cluster"`
	NsPerSendFactor float64     `json:"ns_per_send_factor"`
	MemFactor       float64     `json:"mem_factor"`
	Cells           []ScaleCell `json:"cells"`
}

// blockClusters assigns rank r to cluster r/ranksPerCluster — the seed
// layout shared by the static SPBC cells and the adaptive controller.
func blockClusters(ranks, ranksPerCluster int) []int {
	clusterOf := make([]int, ranks)
	for r := range clusterOf {
		clusterOf[r] = r / ranksPerCluster
	}
	return clusterOf
}

// scaleConfig builds the cell's engine config. Static protocols get a fixed
// policy; spbc-adaptive gets the live controller seeded with the same block
// partition. The adaptive cells set one node per cluster so the controller's
// repartition step stays on clustering.Partition's O(ranks) k>=nodes path —
// the configuration a scale sweep is meant to measure, not the O(nodes²)
// refinement heuristic.
func scaleConfig(m *ScaleMatrix, proto runner.Protocol, ranks int) core.Config {
	cfg := core.Config{
		Interval: m.Interval,
		Steps:    m.Steps,
		Storage:  checkpoint.NewMemoryStorage(),
	}
	switch proto {
	case runner.ProtocolFullLog:
		cfg.Policy = core.NewFullLogProtocol(ranks)
	case runner.ProtocolCoordinated:
		cfg.Policy = core.NewCoordinatedProtocol(ranks)
	case runner.ProtocolSPBCAdaptive:
		cfg.Adaptive = &core.AdaptiveConfig{
			Seed:         blockClusters(ranks, m.RanksPerCluster),
			RanksPerNode: m.RanksPerCluster,
		}
	default:
		cfg.Policy = core.NewSPBCProtocol(blockClusters(ranks, m.RanksPerCluster))
	}
	return cfg
}

// heapSampler tracks the peak live heap while a run is in flight. ReadMemStats
// is a stop-the-world operation, so the cadence is coarse (the reading is a
// lower bound on the true peak — good enough for a growth *ratio* gate).
type heapSampler struct {
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		sample := func() {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > atomic.LoadUint64(&s.peak) {
				atomic.StoreUint64(&s.peak, ms.HeapAlloc)
			}
		}
		for {
			sample()
			select {
			case <-s.stop:
				sample() // final reading so short cells are not all-tick-missed
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak heap above baseline.
func (s *heapSampler) finish(baseline uint64) uint64 {
	close(s.stop)
	<-s.done
	peak := atomic.LoadUint64(&s.peak)
	if peak <= baseline {
		return 1 // degenerate but ratio-safe
	}
	return peak - baseline
}

// runScaleCell measures one (protocol, ranks) point.
func runScaleCell(m *ScaleMatrix, proto runner.Protocol, ranks int) (ScaleCell, error) {
	// Settle the allocator, then sample from *before* the world is built:
	// the per-rank runtime structures (procs, channel state, log stores,
	// protocol instances) are the footprint whose growth the gate is about —
	// excluding construction would gate only the run's transient garbage.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc
	sampler := startHeapSampler()

	w, err := mpi.NewWorld(ranks, simnet.DefaultCostModel())
	if err != nil {
		sampler.finish(baseline)
		return ScaleCell{}, fmt.Errorf("bench: scale cell %s/r%d: %w", proto, ranks, err)
	}
	eng, err := core.NewEngine(w, scaleConfig(m, proto, ranks))
	if err != nil {
		sampler.finish(baseline)
		return ScaleCell{}, fmt.Errorf("bench: scale cell %s/r%d: %w", proto, ranks, err)
	}

	start := time.Now()
	runErr := eng.Run(app.NewRing(m.KernelSize, 0))
	wall := time.Since(start)
	peak := sampler.finish(baseline)
	if runErr != nil {
		return ScaleCell{}, fmt.Errorf("bench: scale cell %s/r%d: %w", proto, ranks, runErr)
	}

	var sends uint64
	for r := 0; r < ranks; r++ {
		sends += w.Proc(r).Stats.Snapshot().Sends
	}
	if sends == 0 {
		return ScaleCell{}, fmt.Errorf("bench: scale cell %s/r%d performed no sends", proto, ranks)
	}
	cell := ScaleCell{
		Protocol:         string(proto),
		Ranks:            ranks,
		Clusters:         eng.Clusters(),
		Steps:            m.Steps,
		Interval:         m.Interval,
		Sends:            sends,
		WallNs:           wall.Nanoseconds(),
		NsPerSend:        float64(wall.Nanoseconds()) / float64(sends),
		PeakHeapBytes:    peak,
		HeapBytesPerRank: float64(peak) / float64(ranks),
		Waves:            eng.Metrics().CheckpointWaves,
	}
	if proto == runner.ProtocolSPBCAdaptive {
		cell.Epochs = eng.Epochs()
	}
	return cell, nil
}

// RunScale executes the scale profile. Cells run sequentially — each
// measurement owns the process — in the deterministic protocol × ranks order.
func RunScale(m ScaleMatrix) (*ScaleResult, error) {
	if err := m.normalize(); err != nil {
		return nil, err
	}
	out := &ScaleResult{
		Name:            m.Name,
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		RanksPerCluster: m.RanksPerCluster,
		NsPerSendFactor: m.NsPerSendFactor,
		MemFactor:       m.MemFactor,
	}
	for _, proto := range m.Protocols {
		for _, ranks := range m.Ranks {
			cell, err := runScaleCell(&m, proto, ranks)
			if err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	return out, nil
}

// Violations returns a description per cell that grew past the gates,
// comparing each cell against its protocol's smallest-world cell.
func (r *ScaleResult) Violations() []string {
	var out []string
	base := map[string]*ScaleCell{}
	for i := range r.Cells {
		c := &r.Cells[i]
		if b, ok := base[c.Protocol]; !ok || c.Ranks < b.Ranks {
			base[c.Protocol] = c
		}
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		b := base[c.Protocol]
		if c == b {
			continue
		}
		if r.NsPerSendFactor > 0 && b.NsPerSend > 0 {
			if ratio := c.NsPerSend / b.NsPerSend; ratio > r.NsPerSendFactor {
				out = append(out, fmt.Sprintf(
					"%s/r%d: %.0f ns/send is %.1fx the r%d cell's %.0f (gate %.1fx): per-send host cost is growing with the world",
					c.Protocol, c.Ranks, c.NsPerSend, ratio, b.Ranks, b.NsPerSend, r.NsPerSendFactor))
			}
		}
		if r.MemFactor > 0 && b.PeakHeapBytes > 0 {
			heapRatio := float64(c.PeakHeapBytes) / float64(b.PeakHeapBytes)
			rankRatio := float64(c.Ranks) / float64(b.Ranks)
			if heapRatio > r.MemFactor*rankRatio {
				out = append(out, fmt.Sprintf(
					"%s/r%d: peak heap grew %.1fx over the r%d cell for a %.0fx rank growth (gate %.1fx ranks): per-rank footprint is superlinear",
					c.Protocol, c.Ranks, heapRatio, b.Ranks, rankRatio, r.MemFactor))
			}
		}
	}
	return out
}

// WriteFile writes BENCH_scale_<name>.json into dir and returns the path.
func (r *ScaleResult) WriteFile(dir string) (string, error) {
	return writeJSONFile(dir, "BENCH_scale_", r.Name, r)
}

// Table renders the profile as an aligned plain-text table, one row per cell.
func (r *ScaleResult) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("BENCH scale %s (GOMAXPROCS=%d, %s)", r.Name, r.GoMaxProcs, r.GoVersion),
		"protocol", "ranks", "clusters", "sends", "wall_ms", "ns/send", "heap_MiB", "heap_KiB/rank", "waves")
	for i := range r.Cells {
		c := &r.Cells[i]
		t.AddRow(
			c.Protocol,
			fmt.Sprint(c.Ranks),
			fmt.Sprint(c.Clusters),
			fmt.Sprint(c.Sends),
			fmt.Sprintf("%.1f", float64(c.WallNs)/1e6),
			fmt.Sprintf("%.0f", c.NsPerSend),
			fmt.Sprintf("%.1f", float64(c.PeakHeapBytes)/(1<<20)),
			fmt.Sprintf("%.1f", c.HeapBytesPerRank/(1<<10)),
			fmt.Sprint(c.Waves),
		)
	}
	return t
}
