package core

import (
	"sync"

	"repro/internal/buf"
	"repro/internal/checkpoint"
)

// The committer's delta pipeline. When the storage stack advertises a
// DeltaPolicy (TieredStorage does; MemoryStorage/DirStorage do not, so their
// byte streams are unchanged), each rank's wave is re-encoded as a codec-v3
// frame against the rank's previous *published* full image before staging:
// a delta frame when the chain is short and the gain clears the policy
// threshold, a compressed or raw full frame otherwise. The base map advances
// only when a wave actually publishes — canceled waves never move it — which
// is exactly the durable-wave invariant recovery depends on: every delta's
// base is a durable wave of the same rank.

// deltaSink is the capability probe: a WaveStorage that understands codec-v3
// frames and wants delta-encoded stages. Once a wave has published, the sink
// is offered the wave's full images — the buffers the committer keeps as delta
// bases anyway — so it need not reconstruct them from the frames it staged.
type deltaSink interface {
	DeltaPolicy() checkpoint.DeltaPolicy
	AdoptImage(rank, wave int, full *buf.Buffer)
}

// storageUnwrapper lets the probe see through decorators (FaultStorage, the
// chaos durability tracker).
type storageUnwrapper interface {
	Unwrap() checkpoint.WaveStorage
}

// probeDeltaSink walks the storage decorator chain looking for a
// delta-capable tier.
func probeDeltaSink(ws checkpoint.WaveStorage) deltaSink {
	for ws != nil {
		if ds, ok := ws.(deltaSink); ok {
			return ds
		}
		u, ok := ws.(storageUnwrapper)
		if !ok {
			break
		}
		ws = u.Unwrap()
	}
	return nil
}

// prevImage is a rank's delta base: its last published full image.
type prevImage struct {
	img   *buf.Buffer // retained full v2 image
	wave  int
	chain int // consecutive delta frames since the last anchor
}

// deltaPlan carries one staged member's encoding decision from stage to
// publish: the retained full image that becomes the rank's next base, and
// the byte accounting for the volume metrics.
type deltaPlan struct {
	rank      int
	wave      int
	full      *buf.Buffer
	chain     int
	fullLen   int
	stagedLen int
	isDelta   bool
}

// drop releases the plan's retained image (abort/cancel paths).
func (p *deltaPlan) drop() {
	if p != nil {
		p.full.Release()
	}
}

// deltaState is the committer-global base map. One mutex, not per shard:
// adaptive epoch switches can move a rank to a different cluster — and so a
// different shard goroutine — between waves (the switch flushes the
// committer, so per-rank stage order still holds).
type deltaState struct {
	sink   deltaSink
	policy checkpoint.DeltaPolicy
	mu     sync.Mutex
	prev   map[int]*prevImage
}

func newDeltaState(sink deltaSink) *deltaState {
	return &deltaState{sink: sink, policy: sink.DeltaPolicy().Normalized(), prev: make(map[int]*prevImage)}
}

// encode picks the staged representation for one member's full image. It
// does not take over the caller's image reference; the returned buffer
// always carries its own reference, and the returned plan retains the full
// image until publish or drop.
func (d *deltaState) encode(rank, wave int, full *buf.Buffer) (*buf.Buffer, *deltaPlan) {
	fb := full.Bytes()
	plan := &deltaPlan{rank: rank, wave: wave, full: full.Retain(), fullLen: len(fb)}

	d.mu.Lock()
	p := d.prev[rank]
	var base *buf.Buffer
	baseWave, chain := -1, 0
	if p != nil {
		base = p.img.Retain()
		baseWave, chain = p.wave, p.chain
	}
	d.mu.Unlock()

	if base != nil {
		if chain+1 < d.policy.MaxChain {
			frame, err := checkpoint.EncodeDeltaFrameBuffer(fb, base.Bytes(), baseWave)
			if err == nil && float64(frame.Len()) <= d.policy.MinGain*float64(len(fb)) {
				base.Release()
				plan.chain = chain + 1
				plan.isDelta = true
				plan.stagedLen = frame.Len()
				return frame, plan
			}
			if err == nil {
				frame.Release()
			}
		}
		base.Release()
	}

	// Anchor (or poor-gain fallback): a self-describing full frame,
	// compressed when that actually shrinks it.
	if frame, err := checkpoint.EncodeCompressedFrameBuffer(fb); err == nil {
		if frame.Len() < len(fb) {
			plan.stagedLen = frame.Len()
			return frame, plan
		}
		frame.Release()
	}
	plan.stagedLen = len(fb)
	return full.Retain(), plan
}

// publish advances the rank's base to the published wave's full image,
// taking over the plan's reference, and offers the same buffer to the tier:
// base and hot entry share one copy of the rank's latest image.
func (d *deltaState) publish(p *deltaPlan) {
	d.sink.AdoptImage(p.rank, p.wave, p.full)
	d.mu.Lock()
	old := d.prev[p.rank]
	d.prev[p.rank] = &prevImage{img: p.full, wave: p.wave, chain: p.chain}
	d.mu.Unlock()
	if old != nil {
		old.img.Release()
	}
}

// close releases every base (end of run).
func (d *deltaState) close() {
	d.mu.Lock()
	prev := d.prev
	d.prev = make(map[int]*prevImage)
	d.mu.Unlock()
	for _, p := range prev {
		p.img.Release()
	}
}
