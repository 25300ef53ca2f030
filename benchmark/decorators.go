package main

import (
	"bytes"
	"time"

	"repro/internal/buf"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mpi"
)

// The three decorators below are the only places a traced run differs from
// an untraced one: an AppFactory wrapper (app and mpi spans), a storage and
// cold-store wrapper (checkpoint spans) and a set of engine fault-point
// hooks (core spans).

// wrapFactory decorates every app instance and the model.Process handed to
// its Init.
func (t *tracer) wrapFactory(f model.AppFactory) model.AppFactory {
	return func() model.App { return &tracedApp{inner: f(), tr: t} }
}

type tracedApp struct {
	inner model.App
	tr    *tracer
	agg   *rankAgg
}

func (a *tracedApp) Name() string { return a.inner.Name() }

func (a *tracedApp) Init(p model.Process) error {
	a.agg = &a.tr.ranks[p.Rank()]
	return a.inner.Init(&tracedProc{Process: p, agg: a.agg})
}

func (a *tracedApp) Step(iter int) error {
	a.agg.childNs = 0
	start := time.Now()
	err := a.inner.Step(iter)
	ns := int64(time.Since(start))
	a.agg.hot[hotStep].add(ns)
	a.agg.stepSelfNs += ns - a.agg.childNs
	return err
}

func (a *tracedApp) Snapshot() ([]byte, error) {
	start := time.Now()
	state, err := a.inner.Snapshot()
	a.agg.hot[hotSnapshot].add(int64(time.Since(start)))
	return state, err
}

func (a *tracedApp) Restore(state []byte) error {
	start := time.Now()
	err := a.inner.Restore(state)
	a.agg.hot[hotRestore].add(int64(time.Since(start)))
	return err
}

func (a *tracedApp) Verify() (float64, error) { return a.inner.Verify() }

// tracedProc times the communication calls of one rank. Non-blocking
// completion tests (Test, Testall, Iprobe) and the pattern API pass through.
type tracedProc struct {
	model.Process
	agg *rankAgg
}

func (p *tracedProc) done(k hotKind, start time.Time) {
	ns := int64(time.Since(start))
	p.agg.hot[k].add(ns)
	p.agg.childNs += ns
}

func (p *tracedProc) Send(b []byte, dest, tag int) error {
	defer p.done(hotIsend, time.Now())
	return p.Process.Send(b, dest, tag)
}

func (p *tracedProc) Isend(b []byte, dest, tag int) (*mpi.Request, error) {
	defer p.done(hotIsend, time.Now())
	return p.Process.Isend(b, dest, tag)
}

func (p *tracedProc) Irecv(b []byte, src, tag int) (*mpi.Request, error) {
	defer p.done(hotIrecv, time.Now())
	return p.Process.Irecv(b, src, tag)
}

func (p *tracedProc) Recv(b []byte, src, tag int) (mpi.Status, error) {
	defer p.done(hotWait, time.Now())
	return p.Process.Recv(b, src, tag)
}

func (p *tracedProc) Wait(req *mpi.Request) (mpi.Status, error) {
	defer p.done(hotWait, time.Now())
	return p.Process.Wait(req)
}

func (p *tracedProc) Waitall(reqs []*mpi.Request) ([]mpi.Status, error) {
	defer p.done(hotWait, time.Now())
	return p.Process.Waitall(reqs)
}

func (p *tracedProc) Waitany(reqs []*mpi.Request) (int, mpi.Status, error) {
	defer p.done(hotWait, time.Now())
	return p.Process.Waitany(reqs)
}

func (p *tracedProc) Probe(src, tag int) (mpi.Status, error) {
	defer p.done(hotWait, time.Now())
	return p.Process.Probe(src, tag)
}

func (p *tracedProc) Barrier() error {
	defer p.done(hotCollective, time.Now())
	return p.Process.Barrier()
}

func (p *tracedProc) AllreduceF64(send, recv []float64, op mpi.Op) error {
	defer p.done(hotCollective, time.Now())
	return p.Process.AllreduceF64(send, recv, op)
}

func (p *tracedProc) ReduceF64(send, recv []float64, op mpi.Op, root int) error {
	defer p.done(hotCollective, time.Now())
	return p.Process.ReduceF64(send, recv, op, root)
}

func (p *tracedProc) BcastBytes(b []byte, root int) error {
	defer p.done(hotCollective, time.Now())
	return p.Process.BcastBytes(b, root)
}

func (p *tracedProc) AllgatherF64(send []float64) ([]float64, error) {
	defer p.done(hotCollective, time.Now())
	return p.Process.AllgatherF64(send)
}

func (p *tracedProc) AllgatherBytes(send []byte) ([]byte, error) {
	defer p.done(hotCollective, time.Now())
	return p.Process.AllgatherBytes(send)
}

func (p *tracedProc) AlltoallBytes(send []byte, blockLen int) ([]byte, error) {
	defer p.done(hotCollective, time.Now())
	return p.Process.AlltoallBytes(send, blockLen)
}

// clusterTrack is the Chrome-trace track of a cluster-scoped span: ranks use
// their own number, clusters the negative range.
func clusterTrack(cluster int) int32 { return int32(-1 - cluster) }

// tracedStorage records stage, publish and load spans around a WaveStorage.
// Unwrap lets the committer's delta probe reach the tier underneath, so a
// traced run stages the same codec-v3 frames as an untraced one.
type tracedStorage struct {
	inner checkpoint.WaveStorage
	tr    *tracer
}

func (s *tracedStorage) Unwrap() checkpoint.WaveStorage { return s.inner }

func (s *tracedStorage) StageImage(rank int, image *buf.Buffer) (func() error, func(), error) {
	t := s.tr
	meta, merr := checkpoint.DecodeMeta(image.Bytes())
	key := waveKey{meta.Epoch, meta.Cluster, meta.Wave}
	var parent uint32
	t.mu.Lock()
	if w := t.waves[key]; w != nil && merr == nil {
		parent = w.ID
	}
	if rank == 0 {
		if full, err := checkpoint.ReconstructFull(image.Bytes(), t.sample[1]); err == nil {
			t.sample[0], t.sample[1] = t.sample[1], bytes.Clone(full)
		}
	}
	t.mu.Unlock()

	start := t.now()
	commit, abort, err := s.inner.StageImage(rank, image)
	id := t.record(span{
		Name: "checkpoint.stage", Layer: "checkpoint", Start: start, End: t.now(),
		Parent: parent, Rank: int32(rank), Wave: int32(meta.Wave), Bytes: int64(image.Len()),
	})
	if err != nil {
		return nil, nil, err
	}
	t.mu.Lock()
	t.stages[[2]int{rank, meta.Wave}] = id
	t.mu.Unlock()

	publish := func() error {
		start := t.now()
		err := commit()
		end := t.now()
		t.record(span{
			Name: "checkpoint.publish", Layer: "checkpoint", Start: start, End: end,
			Parent: parent, Rank: int32(rank), Wave: int32(meta.Wave),
		})
		t.mu.Lock()
		if w := t.waves[key]; w != nil && w.ID == parent {
			w.End = end
		}
		t.mu.Unlock()
		return err
	}
	return publish, abort, nil
}

func (s *tracedStorage) Save(cp *checkpoint.Checkpoint) error { return s.inner.Save(cp) }

func (s *tracedStorage) Load(rank int) (*checkpoint.Checkpoint, bool, error) {
	t := s.tr
	var parent uint32
	t.mu.Lock()
	if t.recovery != nil {
		parent = t.recovery.ID
	}
	t.mu.Unlock()
	start := t.now()
	cp, ok, err := s.inner.Load(rank)
	t.record(span{
		Name: "checkpoint.load", Layer: "checkpoint", Start: start, End: t.now(),
		Parent: parent, Rank: int32(rank), Wave: -1,
	})
	return cp, ok, err
}

func (s *tracedStorage) Ranks() ([]int, error) { return s.inner.Ranks() }

// tracedCold records the cold tier's I/O.
type tracedCold struct {
	inner checkpoint.ColdStore
	tr    *tracer
}

func (c *tracedCold) io(name string, rank, wave int, n int, start int64) {
	t := c.tr
	t.mu.Lock()
	parent := t.stages[[2]int{rank, wave}]
	t.mu.Unlock()
	t.record(span{
		Name: name, Layer: "checkpoint", Start: start, End: t.now(),
		Parent: parent, Rank: int32(rank), Wave: int32(wave), Bytes: int64(n),
	})
}

func (c *tracedCold) Put(rank, wave int, frame []byte) error {
	start := c.tr.now()
	err := c.inner.Put(rank, wave, frame)
	c.io("checkpoint.cold.put", rank, wave, len(frame), start)
	return err
}

func (c *tracedCold) Get(rank, wave int) ([]byte, error) {
	start := c.tr.now()
	frame, err := c.inner.Get(rank, wave)
	c.io("checkpoint.cold.get", rank, wave, len(frame), start)
	return frame, err
}

func (c *tracedCold) Delete(rank, wave int) error {
	start := c.tr.now()
	err := c.inner.Delete(rank, wave)
	c.io("checkpoint.cold.delete", rank, wave, 0, start)
	return err
}

func (c *tracedCold) Waves(rank int) ([]int, error) { return c.inner.Waves(rank) }

func (c *tracedCold) Ranks() ([]int, error) { return c.inner.Ranks() }

// hooks registers the engine fault points the tracer observes. Pre- and
// post-capture run on the capturing rank's goroutine; mid-commit-drain on a
// committer worker; recovery-start on the recovery leader; recovery-end on
// every rolled-back rank; epoch-switch on the deciding rank while the world
// is parked.
func (t *tracer) hooks() *core.FaultRegistry {
	reg := core.NewFaultRegistry()
	reg.Register(core.PointPreCapture, func(_ *core.Engine, in core.PointInfo) {
		t.ranks[in.Rank].captureStart = t.now()
	})
	reg.Register(core.PointPostCapture, func(_ *core.Engine, in core.PointInfo) {
		t.record(span{
			Name: "core.capture", Layer: "core", Start: t.ranks[in.Rank].captureStart, End: t.now(),
			Rank: int32(in.Rank), Wave: int32(in.Wave),
		})
	})
	reg.Register(core.PointMidCommitDrain, func(_ *core.Engine, in core.PointInfo) {
		now := t.now()
		key := waveKey{in.Epoch, in.Cluster, in.Wave}
		t.mu.Lock()
		if old := t.waves[key]; old != nil {
			t.record(*old) // a canceled wave being re-captured after a rollback
		}
		t.waves[key] = &span{
			Name: "core.commit", Layer: "core", Start: now, End: now,
			ID: t.id(), Rank: clusterTrack(in.Cluster), Wave: int32(in.Wave),
		}
		t.mu.Unlock()
	})
	reg.Register(core.PointRecoveryStart, func(_ *core.Engine, in core.PointInfo) {
		now := t.now()
		t.mu.Lock()
		if t.recovery != nil {
			t.record(*t.recovery)
		}
		t.recovery = &span{
			Name: "core.recovery", Layer: "core", Start: now, End: now,
			ID: t.id(), Rank: clusterTrack(in.Cluster), Wave: -1,
		}
		t.mu.Unlock()
	})
	reg.Register(core.PointRecoveryEnd, func(_ *core.Engine, _ core.PointInfo) {
		now := t.now()
		t.mu.Lock()
		if t.recovery != nil {
			t.recovery.End = now
		}
		t.mu.Unlock()
	})
	reg.Register(core.PointEpochSwitch, func(_ *core.Engine, in core.PointInfo) {
		now := t.now()
		t.mu.Lock()
		t.epochSwitch = append(t.epochSwitch, now)
		t.mu.Unlock()
		t.record(span{Name: "core.epoch_switch", Layer: "core", Start: now, End: now, Rank: -1, Wave: int32(in.Epoch)})
	})
	return reg
}
