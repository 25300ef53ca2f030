package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/clustering"
	"repro/internal/core"
	"repro/internal/runner"
)

const mib = 1 << 20

// Heap figures come from runtime/metrics: reading them does not stop the
// world, so the live-object total (what MemStats calls HeapAlloc) can be
// sampled every millisecond instead of internal/bench/scale.go's 10 ms, which
// catches the crest of each GC cycle and steadies the peak.
const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapAllocs  = "/gc/heap/allocs:bytes"
)

func readHeap() (objects, allocs uint64) {
	s := []metrics.Sample{{Name: heapObjects}, {Name: heapAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// stolenSeconds is the CPU time the hypervisor has so far withheld from this
// guest while it had work to run (the steal column of /proc/stat, in 10 ms
// ticks, all CPUs summed); 0 where the kernel does not say.
func stolenSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}

// heapSampler tracks the peak heap while a run is in flight.
type heapSampler struct {
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			s.peak = max(s.peak, sample[0].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak heap it saw.
func (s *heapSampler) finish() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// runOut is what one run of a workload measured. Host-side figures (seconds,
// MiB) vary run to run; the simulated statistics must not.
type runOut struct {
	setupS       float64
	wallS        float64
	stolenShare  float64 // share of the guest's CPU time the hypervisor withheld during the run
	restartLoadS float64
	peakHeapMiB  float64
	allocMiB     float64
	quiesceS     float64
	times        setupTimes

	sim     simStats
	metrics core.Metrics
	sends   uint64 // every send of the protected world, protocol traffic included

	commRatio      float64
	retainedEndMiB float64
	loggedRecords  uint64
	demotions      int
	fallbacks      int
	clusterOf      []int

	failures []string // correctness checks this run failed
}

// simStats are the simulated statistics a host-side optimisation must leave
// identical; core.sim_stat_spread counts how many differ between repeats.
type simStats struct {
	Makespan     float64 `json:"virtual_makespan_s"`
	LoggedBytes  uint64  `json:"logged_bytes"`
	StagedBytes  uint64  `json:"staged_bytes"`
	Replayed     int     `json:"replayed_records"`
	DigestsMatch bool    `json:"digests_match"`
}

// scenario is a workload bound to a seed, with its native twin.
type scenario struct {
	spec   *spec
	faults []core.Fault
	twin   *twin
}

func newScenario(s *spec, seed int64) (*scenario, error) {
	_, t, _, err := runNative(s, s.steps)
	if err != nil {
		return nil, fmt.Errorf("%s: native twin: %w", s.name, err)
	}
	return &scenario{spec: s, faults: s.faultPlan(seed), twin: t}, nil
}

// run executes the workload once: set-up, Engine.Run (+ Quiesce on the
// tier), the correctness checks and the whole-job restart load. A non-nil
// tracer turns the three decorators on. The returned built is nil unless
// keep is set.
func (sc *scenario) run(tr *tracer, keep bool) (*runOut, *built, error) {
	s := sc.spec
	factory := s.factory
	if tr != nil {
		factory = tr.wrapFactory(factory)
	}

	begun, stolen := time.Now(), stolenSeconds()
	// Settle the allocator and sample from before set-up: per-rank runtime
	// structures are part of the footprint.
	runtime.GC()
	heap0, allocs0 := readHeap()
	sampler := startHeapSampler()

	start := time.Now()
	b, err := build(s, sc.faults, tr)
	if err != nil {
		sampler.finish()
		return nil, nil, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	out := &runOut{setupS: time.Since(start).Seconds(), times: b.times}

	start = time.Now()
	runErr := b.eng.Run(factory)
	if b.tier != nil {
		q := time.Now()
		b.tier.Quiesce()
		out.quiesceS = time.Since(q).Seconds()
	}
	out.wallS = time.Since(start).Seconds()
	peak := sampler.finish()
	_, allocs1 := readHeap()
	if runErr != nil {
		return nil, nil, fmt.Errorf("%s: run: %w", s.name, runErr)
	}
	if peak > heap0 {
		out.peakHeapMiB = float64(peak-heap0) / mib
	}
	out.allocMiB = float64(allocs1-allocs0) / mib
	sc.collect(b, out)
	sc.check(b, out)

	// A whole-job restart has lost the tier's hot ring, so on a tiered
	// workload it reopens the tier over the cold store the run filled and pays
	// for the delta chains.
	from := b.storage
	if b.tier != nil {
		from, _, _ = newStorage(s, b.cold, tr)
	}
	if !keep {
		b = nil // the world and the engine are garbage from here on
	}
	if out.restartLoadS, err = restartLoadS(from, s.ranks, tr != nil); err != nil {
		out.failures = append(out.failures, err.Error())
	}
	out.stolenShare = (stolenSeconds() - stolen) / (time.Since(begun).Seconds() * float64(runtime.NumCPU()))
	return out, b, nil
}

// The restart load is repeated after an untraced run for restartLoadWindow
// or restartLoadPasses passes, whichever ends first: dozens of passes where
// a pass takes a millisecond, one where it takes longer than the window.
const (
	restartLoadWindow = 100 * time.Millisecond
	restartLoadPasses = 32
)

// restartLoadS times the restart load and doubles as a check: every rank's
// checkpoint must load and validate. The passes follow a collection and run
// with the collector off: a pass allocates what it decodes, and a cycle that
// starts inside one has the finished run's heap to mark, which triples the
// pass. The fastest pass is reported: where a load takes milliseconds the
// passes of one run scatter by a third with the state of the caches, and
// their floor is twice as steady from one invocation to the next as their
// median. A traced run loads once, so its load spans count one restart.
func restartLoadS(st checkpoint.Storage, ranks int, traced bool) (float64, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var passes []float64
	for begun := time.Now(); len(passes) == 0 ||
		(!traced && len(passes) < restartLoadPasses && time.Since(begun) < restartLoadWindow); {
		d, err := restartLoad(st, ranks)
		if err != nil {
			return 0, err
		}
		passes = append(passes, d)
	}
	return slices.Min(passes), nil
}

// restartLoad is what a whole-job restart pays: load every rank's latest
// checkpoint (walking delta chains and the cold tier where there are any)
// and validate it.
func restartLoad(st checkpoint.Storage, ranks int) (float64, error) {
	start := time.Now()
	for r := 0; r < ranks; r++ {
		cp, ok, err := st.Load(r)
		if err != nil {
			return 0, fmt.Errorf("restart load rank %d: %w", r, err)
		}
		if !ok {
			return 0, fmt.Errorf("restart load rank %d: no checkpoint", r)
		}
		if err := cp.Validate(); err != nil {
			return 0, fmt.Errorf("restart load rank %d: %w", r, err)
		}
	}
	return time.Since(start).Seconds(), nil
}

// collect reads the counters of a finished run.
func (sc *scenario) collect(b *built, out *runOut) {
	out.metrics = b.eng.Metrics()
	out.clusterOf = b.eng.ClusterOf()
	var comm, total float64
	var retained uint64
	for r := 0; r < sc.spec.ranks; r++ {
		v := b.world.Proc(r).Stats.Snapshot()
		out.sends += v.Sends
		comm += v.CommTime
		total += v.CommTime + v.CompTime
		st := b.eng.Store(r)
		out.sim.LoggedBytes += st.CumulativeBytes()
		out.loggedRecords += st.CumulativeCount()
		retained += st.RetainedBytes()
	}
	if total > 0 {
		out.commRatio = comm / total
	}
	out.retainedEndMiB = float64(retained) / mib
	out.sim.Makespan = b.world.MaxTime()
	out.sim.StagedBytes = out.metrics.BytesStaged
	if out.sim.StagedBytes == 0 {
		// No delta policy below: what is staged is the plain content.
		out.sim.StagedBytes = out.metrics.CheckpointBytes
	}
	out.sim.Replayed = out.metrics.ReplayedRecords
	out.sim.DigestsMatch = reflect.DeepEqual(b.eng.VerifyValues(), sc.twin.digests)
	if b.tier != nil {
		out.demotions = b.tier.Demotions()
		out.fallbacks = b.tier.ReplicaFallbacks()
	}
}

// check applies the workload's correctness checks; a run that fails one
// counts as a failed operation.
func (sc *scenario) check(b *built, out *runOut) {
	s := sc.spec
	fail := func(format string, args ...any) {
		out.failures = append(out.failures, fmt.Sprintf(format, args...))
	}
	if !out.sim.DigestsMatch {
		fail("per-rank verify digests differ from the native twin")
	}
	m := &out.metrics
	if m.RecoveryEvents != len(sc.faults) {
		fail("recovery events = %d, want %d", m.RecoveryEvents, len(sc.faults))
	}
	// Failure-free static runs commit exactly one wave per group and
	// boundary. A recovery re-captures the boundary it resumes from, and an
	// adaptive run regroups, so those only have a floor.
	groups := maxOf(out.clusterOf) + 1
	want := groups * s.boundaries()
	switch {
	case len(sc.faults) > 0 || s.proto == runner.ProtocolSPBCAdaptive:
		if m.CheckpointWaves < s.boundaries() {
			fail("checkpoint waves = %d, want at least %d", m.CheckpointWaves, s.boundaries())
		}
	case m.CheckpointWaves != want:
		fail("checkpoint waves = %d, want %d", m.CheckpointWaves, want)
	}
	if s.proto == runner.ProtocolSPBCAdaptive && m.EpochSwitches < 1 {
		fail("adaptive run never switched epoch")
	}
	frac := float64(out.sim.LoggedBytes) / float64(sc.twin.bytes)
	switch s.proto {
	case runner.ProtocolFullLog:
		if out.sim.LoggedBytes != sc.twin.bytes {
			fail("full-log logged fraction = %v, want 1", frac)
		}
	case runner.ProtocolCoordinated:
		if out.sim.LoggedBytes != 0 {
			fail("coordinated logged fraction = %v, want 0", frac)
		}
	}
	if len(sc.faults) > 0 {
		if scope := float64(m.RestoredCheckpoints) / float64(m.RecoveryEvents); scope != expectedScope(out.clusterOf) {
			fail("rollback scope = %v ranks per fault, want %v", scope, expectedScope(out.clusterOf))
		}
	}
	if b.tier != nil {
		if err := b.tier.LostErr(); err != nil {
			fail("tiered storage lost a wave: %v", err)
		}
	}
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// expectedScope is the number of ranks a uniformly random single-rank
// failure rolls back under a partition: the mean, over ranks, of the size of
// the rank's recovery group.
func expectedScope(clusterOf []int) float64 {
	sum := 0
	for _, n := range clustering.ClusterSizes(clusterOf, maxOf(clusterOf)+1) {
		sum += n * n
	}
	return float64(sum) / float64(len(clusterOf))
}
