package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/buf"
	"repro/internal/checkpoint"
	"repro/internal/clustering"
	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/mpi"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// nsPerOp times n calls of fn after a tenth as many warm-up calls.
func nsPerOp(n int, fn func(i int)) float64 {
	for i := 0; i < n/10; i++ {
		fn(i)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// microbenches are direct calls into one layer each: the floor a full run
// is compared against. They do not depend on the workload, so they run in
// one traced invocation only, with the ladder.
func microbenches(m map[string]float64) error {
	// mpi: one eager send/recv round between two ranks of a bare world.
	w, err := mpi.NewWorld(2, simnet.DefaultCostModel())
	if err != nil {
		return err
	}
	p0, p1 := w.Proc(0), w.Proc(1)
	payload, rbuf := make([]byte, 8), make([]byte, 8)
	var roundErr error
	m["mpi.eager_round.ns"] = nsPerOp(20000, func(int) {
		if err := p0.Send(payload, 1, 0, nil); err != nil {
			roundErr = err
		}
		if _, err := p1.Recv(rbuf, 0, 0, nil); err != nil {
			roundErr = err
		}
	})
	if roundErr != nil {
		return fmt.Errorf("eager round: %w", roundErr)
	}

	// trace: Recorder.Record with a 4096-rank vector clock, on a few ranks
	// in turn so every record after the warm-up is a steady-state delta.
	const clockRanks = 4096
	rec := trace.NewRecorder(clockRanks)
	clock := trace.NewVectorClock(clockRanks)
	m["trace.record.ns"] = nsPerOp(4000, func(i int) {
		r := i % 8
		clock[r]++
		rec.Record(trace.Event{Kind: trace.EventSend, Rank: r, Seq: uint64(i), Bytes: 8, Clock: clock})
	})

	// buf: copy a 16 KiB payload into a pooled buffer and release it.
	big := make([]byte, 16<<10)
	m["buf.copy.ns_per_kib"] = nsPerOp(20000, func(int) { buf.Copy(big).Release() }) / 16

	// logstore: append a shared record, truncate every 64.
	store := logstore.New()
	small := make([]byte, 64)
	m["logstore.append.ns"] = nsPerOp(50000, func(i int) {
		seq := uint64(i + 1)
		b := buf.Copy(small)
		store.AppendShared(mpi.Envelope{Source: 0, Dest: 1, Seq: seq, Bytes: len(small)}, b, 0)
		b.Release()
		if seq%64 == 0 {
			store.Truncate(1, 0, seq)
		}
	})
	return nil
}

// codecBenches time the checkpoint codec on two consecutive full images of
// rank 0 taken from the traced run.
func codecBenches(m map[string]float64, prev, last []byte) error {
	if len(prev) == 0 || len(last) == 0 {
		return nil // fewer than two waves reached the storage
	}
	perMiB := func(ns float64, n int) float64 { return ns * mib / float64(n) }
	cp, err := checkpoint.Decode(last)
	if err != nil {
		return fmt.Errorf("decode sample image: %w", err)
	}
	m["checkpoint.decode.ns_per_mib"] = perMiB(nsPerOp(200, func(int) { checkpoint.Decode(last) }), len(last))
	m["checkpoint.encode.ns_per_mib"] = perMiB(nsPerOp(200, func(int) {
		if b, err := checkpoint.EncodeBuffer(cp); err == nil {
			b.Release()
		}
	}), len(last))
	frame, err := checkpoint.EncodeDeltaFrame(last, prev, cp.Wave-1)
	if err != nil {
		return fmt.Errorf("delta-encode sample image: %w", err)
	}
	m["checkpoint.delta_encode.ns_per_mib"] = perMiB(nsPerOp(50, func(int) { checkpoint.EncodeDeltaFrame(last, prev, cp.Wave-1) }), len(last))
	if _, err := checkpoint.ReconstructFull(frame, prev); err != nil {
		return fmt.Errorf("reconstruct sample image: %w", err)
	}
	m["checkpoint.reconstruct.ns_per_mib"] = perMiB(nsPerOp(50, func(int) { checkpoint.ReconstructFull(frame, prev) }), len(last))
	return nil
}

// ladder runs halo_spbc's kernel through configurations that each add one
// layer and reports host ns per application send for every rung; the deltas
// between rungs are what each layer costs on the send path.
const (
	ladderSteps   = 32
	ladderRepeats = 3
)

func ladder(m map[string]float64, s *spec) error {
	ls := *s
	ls.steps = min(ladderSteps, s.steps)
	blocks := make([]int, ls.ranks)
	for r := range blocks {
		blocks[r] = r / (ls.ranks / ls.clusters)
	}
	var appSends uint64

	native := func(opts ...mpi.Option) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			_, t, wall, err := runNative(&ls, ls.steps, opts...)
			if err == nil {
				appSends = t.sends
			}
			return wall, err
		}
	}
	engine := func(cfg func() core.Config) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			w, err := mpi.NewWorld(ls.ranks, ls.cost())
			if err != nil {
				return 0, err
			}
			c := cfg()
			c.Steps = ls.steps
			eng, err := core.NewEngine(w, c)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			if err := eng.Run(ls.factory); err != nil {
				return 0, err
			}
			if tier, ok := c.Storage.(*checkpoint.TieredStorage); ok {
				tier.Quiesce()
			}
			return time.Since(start), nil
		}
	}
	rungs := []struct {
		name string
		run  func() (time.Duration, error)
	}{
		{"native", native()},
		{"recorder", func() (time.Duration, error) { return native(mpi.WithRecorder(trace.NewRecorder(ls.ranks)))() }},
		{"protocol", engine(func() core.Config { return core.Config{Policy: core.NewSPBCProtocol(blocks)} })},
		{"waves", engine(func() core.Config {
			return core.Config{Policy: core.NewSPBCProtocol(blocks), Interval: ls.interval, Storage: checkpoint.NewMemoryStorage()}
		})},
		{"tiered", engine(func() core.Config {
			return core.Config{Policy: core.NewSPBCProtocol(blocks), Interval: ls.interval,
				Storage: checkpoint.NewTieredStorage(checkpoint.TieredConfig{})}
		})},
		{"adaptive", engine(func() core.Config {
			return core.Config{Adaptive: &core.AdaptiveConfig{Seed: blocks, RanksPerNode: ls.perNode},
				Interval: ls.interval, Storage: checkpoint.NewMemoryStorage()}
		})},
	}
	ns := make([]float64, len(rungs))
	for i, r := range rungs {
		var walls []float64
		for k := 0; k < ladderRepeats; k++ {
			wall, err := r.run()
			if err != nil {
				return fmt.Errorf("ladder rung %s: %w", r.name, err)
			}
			walls = append(walls, float64(wall.Nanoseconds()))
		}
		sort.Float64s(walls)
		ns[i] = walls[0] / float64(appSends) // fastest repeat: the rung's floor
		m["ladder."+r.name+".ns_per_send"] = ns[i]
	}
	m["trace.record.delta_ns"] = ns[1] - ns[0]
	m["core.onsend.delta_ns"] = ns[2] - ns[0]
	m["core.waves.delta_ns"] = ns[3] - ns[2]
	m["checkpoint.tiered.delta_ns"] = ns[4] - ns[3]
	m["core.adaptive.delta_ns"] = ns[5] - ns[3]
	return nil
}

// runnerRun executes the scenario once through runner.Run, the way users of
// the experiment layer enter, and checks the digests.
func (sc *scenario) runnerRun() (float64, error) {
	s := sc.spec
	st, tier, _ := newStorage(s, nil, nil)
	cost := s.cost()
	start := time.Now()
	rep, err := runner.Run(runner.Scenario{
		Name: s.name, App: s.factory, Ranks: s.ranks, RanksPerNode: s.perNode, Clusters: s.clusters,
		Steps: s.steps, CheckpointInterval: s.interval, Protocol: s.proto, Cost: &cost,
		Faults: sc.faults, Storage: st,
	})
	if tier != nil {
		tier.Quiesce()
	}
	wall := time.Since(start).Seconds()
	if err != nil {
		return 0, fmt.Errorf("runner.Run: %w", err)
	}
	if !reflect.DeepEqual(rep.Verify, sc.twin.digests) {
		return 0, fmt.Errorf("runner.Run: digests differ from the native twin")
	}
	return wall, nil
}

// layerInputs is what the per-layer metrics of one workload are computed
// from: the traced run, its tracer, and the untraced runs around it.
type layerInputs struct {
	sc       *scenario
	out      *runOut // the traced run
	b        *built  // its world, engine and storage, still alive
	tr       *tracer
	spans    []span
	poolGets uint64
	poolMiss uint64
	untraced []*runOut
	traced   []*runOut
	// freeMakespan is the makespan of a failure-free protected run of the
	// same workload (fault workloads only).
	freeMakespan float64
}

// layerMetrics assembles every per-layer metric. A metric that cannot vary
// on a workload is reported as its constant, never omitted.
func layerMetrics(in *layerInputs) (map[string]float64, []string, error) {
	m := make(map[string]float64, len(perLayer))
	var notes []string
	s, out, tr := in.sc.spec, in.out, in.tr
	sec := func(d time.Duration) float64 { return d.Seconds() }

	step := tr.hotTotal(hotStep)
	m["app.step.count"] = float64(step.count)
	m["app.step.self_s"] = sec(tr.stepSelf())
	snap, restore := tr.hotTotal(hotSnapshot), tr.hotTotal(hotRestore)
	m["app.snapshot.busy_s"] = float64(snap.sumNs) / 1e9
	m["app.restore.busy_s"] = float64(restore.sumNs) / 1e9

	isend, irecv, wait, coll := tr.hotTotal(hotIsend), tr.hotTotal(hotIrecv), tr.hotTotal(hotWait), tr.hotTotal(hotCollective)
	m["mpi.isend.count"] = float64(isend.count)
	m["mpi.isend.busy_s"] = float64(isend.sumNs) / 1e9
	m["mpi.irecv.busy_s"] = float64(irecv.sumNs) / 1e9
	m["mpi.wait.blocked_s"] = float64(wait.sumNs) / 1e9
	m["mpi.collective.count"] = float64(coll.count)
	m["mpi.collective.busy_s"] = float64(coll.sumNs) / 1e9
	m["mpi.sends_total"] = float64(out.sends)
	// Everything the protected world sent beyond the native twin: wave
	// barriers, and on fault workloads the re-executed sends.
	m["mpi.protocol_sends"] = float64(out.sends) - float64(in.sc.twin.sends)
	m["mpi.world_build_s"] = sec(out.times.worldBuild)

	m["simnet.virtual_makespan_s"] = out.sim.Makespan
	m["simnet.comm_ratio"] = out.commRatio

	if err := codecBenches(m, tr.sample[0], tr.sample[1]); err != nil {
		return nil, nil, err
	}

	untracedWall := medianOf(wallsOf(in.untraced))
	if s.name == "halo_spbc" {
		if err := microbenches(m); err != nil {
			return nil, nil, err
		}
		if err := ladder(m, s); err != nil {
			return nil, nil, err
		}
		// The waves rung is the halo_spbc configuration at fewer steps: the
		// two ns/send figures should agree.
		full := untracedWall * 1e9 / float64(in.sc.twin.sends)
		gap := m["ladder.waves.ns_per_send"]/full - 1
		m["ladder.gap_frac"] = gap
		if gap > 0.15 || gap < -0.15 {
			notes = append(notes, fmt.Sprintf("FLAG ladder: waves rung %.0f ns/send vs %s %.0f ns/send (gap %+.0f%% exceeds 15%%)",
				m["ladder.waves.ns_per_send"], s.name, full, 100*gap))
		}
	} else {
		notes = append(notes, "the ladder (ladder.*, *.delta_ns) and the microbenchmark floors (mpi.eager_round.ns, trace.record.ns, buf.copy.ns_per_kib, logstore.append.ns) are measured on halo_spbc only; reported as 0 here")
	}

	m["buf.pool.gets"] = float64(in.poolGets)
	if in.poolGets > 0 {
		m["buf.pool.miss_frac"] = float64(in.poolMiss) / float64(in.poolGets)
	}

	m["logstore.logged_records"] = float64(out.loggedRecords)
	m["logstore.logged_mib"] = float64(out.sim.LoggedBytes) / mib
	m["logstore.logged_fraction"] = float64(out.sim.LoggedBytes) / float64(in.sc.twin.bytes)
	m["logstore.retained_end_mib"] = out.retainedEndMiB
	m["logstore.truncated_records"] = float64(out.metrics.TruncatedLogRecords)

	em := &out.metrics
	m["core.engine_build_s"] = sec(out.times.engineBuild)
	capture := statsOf(in.spans, "core.capture")
	m["core.capture.count"] = float64(capture.count)
	m["core.capture.busy_s"] = float64(em.CheckpointCaptureNs) / 1e9
	m["core.capture.p50_us"] = medianOf(capture.durs) * 1e6
	m["core.capture.max_us"] = stats.Max(capture.durs) * 1e6
	commit := statsOf(in.spans, "core.commit")
	m["core.commit.latency_s"] = float64(em.CheckpointCommitNs) / 1e9
	m["core.commit.p50_ms"] = medianOf(commit.durs) * 1e3
	m["core.commit.max_ms"] = stats.Max(commit.durs) * 1e3
	m["core.waves"] = float64(em.CheckpointWaves)
	m["core.waves_canceled"] = float64(em.CheckpointWavesCanceled)

	recovery := statsOf(in.spans, "core.recovery")
	m["core.recovery.count"] = float64(em.RecoveryEvents)
	m["core.recovery.busy_s"] = sec(recovery.busy)
	m["core.recovery.replayed_records"] = float64(em.ReplayedRecords)
	m["core.recovery.replayed_mib"] = float64(em.ReplayedBytes) / mib
	m["core.recovery.restored_checkpoints"] = float64(em.RestoredCheckpoints)
	var suppressed uint64
	for r := 0; r < s.ranks; r++ {
		suppressed += in.b.world.Proc(r).Stats.Snapshot().Suppressed
	}
	m["core.recovery.suppressed_sends"] = float64(suppressed)
	if em.RecoveryEvents > 0 {
		m["core.recovery.virtual_s"] = (out.sim.Makespan - in.freeMakespan) / float64(em.RecoveryEvents)
	}

	m["core.epoch.switches"] = float64(em.EpochSwitches)
	var gaps []float64
	for i := 1; i < len(tr.epochSwitch); i++ {
		gaps = append(gaps, float64(tr.epochSwitch[i]-tr.epochSwitch[i-1])/1e9)
	}
	m["core.epoch.switch_gap_s"] = medianOf(gaps)
	m["core.sim_stat_spread"] = float64(simSpread(append(in.untraced, in.traced...)))

	stage := statsOf(in.spans, "checkpoint.stage")
	m["checkpoint.stage.count"] = float64(stage.count)
	m["checkpoint.stage.busy_s"] = sec(stage.busy)
	m["checkpoint.stage.mib"] = float64(stage.bytes) / mib
	m["checkpoint.publish.busy_s"] = sec(statsOf(in.spans, "checkpoint.publish").busy)
	put := statsOf(in.spans, "checkpoint.cold.put")
	m["checkpoint.cold.put.count"] = float64(put.count)
	m["checkpoint.cold.put.busy_s"] = sec(put.busy)
	m["checkpoint.cold.put.mib"] = float64(put.bytes) / mib
	m["checkpoint.cold.delete.count"] = float64(statsOf(in.spans, "checkpoint.cold.delete").count)
	m["checkpoint.demotions"] = float64(out.demotions)
	m["checkpoint.quiesce_s"] = out.quiesceS
	m["checkpoint.delta.images"] = float64(em.DeltaImages)
	m["checkpoint.full.images"] = float64(em.FullImages)
	m["checkpoint.delta.ratio"] = em.DeltaRatio
	load := statsOf(in.spans, "checkpoint.load")
	m["checkpoint.load.count"] = float64(load.count)
	m["checkpoint.load.busy_s"] = sec(load.busy)
	get := statsOf(in.spans, "checkpoint.cold.get")
	m["checkpoint.cold.get.count"] = float64(get.count)
	m["checkpoint.cold.get.busy_s"] = sec(get.busy)
	m["checkpoint.replica_fallbacks"] = float64(out.fallbacks)

	if s.partitioned() {
		prof := core.BuildProfile(in.b.world, s.perNode)
		m["clustering.partition.ns"] = nsPerOp(1, func(int) { clustering.Partition(prof, s.clusters, clustering.MinTotalLogged) })
	}
	m["clustering.profile_build_s"] = sec(out.times.profileBuild)

	runS, err := in.sc.runnerRun()
	if err != nil {
		return nil, nil, err
	}
	m["runner.run_s"] = runS
	m["runner.overhead_s"] = runS - medianOf(setupsOf(in.untraced)) - untracedWall

	m["bench.trace_overhead_frac"] = medianOf(wallsOf(in.traced))/untracedWall - 1
	m["bench.generator_threads"] = float64(runtime.GOMAXPROCS(0))

	for _, def := range perLayer {
		if _, ok := m[def.name]; !ok {
			m[def.name] = 0
		}
	}
	return m, notes, nil
}

// simSpread counts the simulated statistics that were not identical across
// the runs of one workload: 0 means the simulation was deterministic.
func simSpread(runs []*runOut) int {
	if len(runs) < 2 {
		return 0
	}
	first := runs[0].sim
	var makespan, logged, staged, replayed, digests bool
	for _, r := range runs[1:] {
		makespan = makespan || r.sim.Makespan != first.Makespan
		logged = logged || r.sim.LoggedBytes != first.LoggedBytes
		staged = staged || r.sim.StagedBytes != first.StagedBytes
		replayed = replayed || r.sim.Replayed != first.Replayed
		digests = digests || r.sim.DigestsMatch != first.DigestsMatch
	}
	n := 0
	for _, differs := range []bool{makespan, logged, staged, replayed, digests} {
		if differs {
			n++
		}
	}
	return n
}
