package checkpoint

// TieredStorage: the delta-aware WaveStorage behind the committer's codec-v3
// pipeline. Staged representations (full v2 images, compressed fulls, or
// delta frames against the previous durable wave) land in a hot in-memory
// ring of the last K durable waves per rank and are demoted asynchronously to
// a cold tier (plus an optional buddy replica, so one lost or corrupted copy
// degrades to the other instead of losing the only durable wave).
//
// Invariants:
//
//   - A delta frame's base is always an *older durable wave of the same
//     rank*; every chain terminates at a self-describing frame (the anchor)
//     because the committer forces one every DeltaPolicy.MaxChain waves.
//   - Waves older than the rank's newest anchor are superseded — recovery
//     never walks past an anchor — and are garbage-collected from every tier
//     once the anchor is durable (the durable-wave invariant).
//   - Frames are verified on reconstruction (length + FNV-1a pinned in the
//     frame), so a corrupt copy is detected at recovery time and Load retries
//     the chain against the replica before giving up.
//
// Nothing is decoded on the write path. A plain full image is its own
// materialized form. For a compressed or delta frame the committer — which
// still holds the wave's full v2 image as the rank's next delta base — offers
// that buffer through AdoptImage once the wave has published, and the hot
// entry shares it by reference: one in-memory copy of a rank's latest image
// serves both as delta base and as recovery fast path. The tier adopts only an
// image whose length and FNV-1a are the ones pinned in the header of the frame
// it staged, so a frame damaged on its way in is never hidden behind a clean
// image; such an entry, or one nobody offered an image for, stays
// unmaterialized.
//
// Load's fast path decodes the materialized image of the latest hot entry, so
// steady-state recovery cost stays at one plain Decode; the chain walk is only
// paid when the entry is unmaterialized, recovery outlives the hot ring or a
// copy is damaged.
//
// Ownership: every holder of a staged frame or an adopted image owns one
// reference to its buf.Buffer and treats the bytes as immutable. A hot entry
// drops its references when it leaves the ring — eviction, anchor GC or an
// overwrite of the same (rank, wave).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/buf"
)

// ColdStore is the cold-tier backend of TieredStorage: a keyed frame store.
// Implementations must be safe for concurrent use.
type ColdStore interface {
	// Put durably stores the frame for (rank, wave), replacing any previous
	// frame under the same key.
	Put(rank, wave int, frame []byte) error
	// Get returns the stored frame, or ErrNoFrame if the key is absent.
	Get(rank, wave int) ([]byte, error)
	// Delete removes the frame; absent keys are not an error.
	Delete(rank, wave int) error
	// Waves lists the stored wave numbers of a rank, sorted.
	Waves(rank int) ([]int, error)
	// Ranks lists ranks with at least one stored frame, sorted.
	Ranks() ([]int, error)
}

// ErrNoFrame is returned by ColdStore.Get for absent keys.
var ErrNoFrame = errors.New("checkpoint: cold tier: no such frame")

// TieredConfig configures a TieredStorage.
type TieredConfig struct {
	// HotWaves is K, the per-rank hot-ring size. 0 means the default (2);
	// negative disables the hot ring entirely (every Load walks the cold
	// tier — the configuration chaos uses to drive the replica paths).
	HotWaves int
	// Cold is the primary cold tier. nil means a fresh MemColdStore.
	Cold ColdStore
	// Replica is the optional buddy location: every demotion writes both
	// copies, and recovery falls back to it when the primary copy is missing
	// or damaged.
	Replica ColdStore
	// Delta is the policy advertised to the committer. Zero value means
	// DefaultDeltaPolicy.
	Delta DeltaPolicy
	// SyncDemotion runs demotion and cold GC inline on the commit path
	// instead of background goroutines. Deterministic harnesses (the chaos
	// checker) use it so recovery reads the cold tier instead of racing the
	// demotion worker.
	SyncDemotion bool
}

func (c TieredConfig) normalized() TieredConfig {
	switch {
	case c.HotWaves == 0:
		c.HotWaves = 2
	case c.HotWaves < 0:
		c.HotWaves = 0
	}
	if c.Cold == nil {
		c.Cold = NewMemColdStore()
	}
	c.Delta = c.Delta.normalized()
	return c
}

// hotEntry is one durable wave in the hot ring: the staged representation
// verbatim plus, once known, the materialized full v2 image — the frame itself
// for a plain full image, the buffer adopted from the committer otherwise.
// The entry owns one reference to each.
type hotEntry struct {
	rep  *buf.Buffer
	full *buf.Buffer // nil while unmaterialized
	// pinLen and pinSum are the image length and FNV-1a pinned in rep's
	// header; adoptable says they parsed and full may still be adopted.
	pinLen, pinSum uint64
	adoptable      bool
}

// release drops the entry's buffer references.
func (e *hotEntry) release() {
	e.rep.Release()
	if e.full != nil {
		e.full.Release()
	}
}

// TieredStorage implements WaveStorage over a hot ring + cold tier(s).
type TieredStorage struct {
	cfg TieredConfig

	mu      sync.Mutex
	hot     map[int]map[int]*hotEntry
	pending map[int]map[int]*buf.Buffer // staged reps not yet demoted
	latest  map[int]int                 // rank -> latest committed wave
	floor   map[int]int                 // rank -> newest anchor wave (GC floor)

	wg        sync.WaitGroup // in-flight demotions and cold GC
	fallbacks atomic.Int64   // recoveries that needed the replica
	demotions atomic.Int64
	lostErr   error // first demotion where every copy failed
}

// NewTieredStorage creates a tiered store from the given config.
func NewTieredStorage(cfg TieredConfig) *TieredStorage {
	return &TieredStorage{
		cfg:     cfg.normalized(),
		hot:     make(map[int]map[int]*hotEntry),
		pending: make(map[int]map[int]*buf.Buffer),
		latest:  make(map[int]int),
		floor:   make(map[int]int),
	}
}

// DeltaPolicy advertises the delta capability to the committer.
func (t *TieredStorage) DeltaPolicy() DeltaPolicy { return t.cfg.Delta }

// Quiesce blocks until every queued demotion and cold GC has finished. Tests
// and benchmarks call it before inspecting the cold tier or tearing down the
// backing directory.
func (t *TieredStorage) Quiesce() { t.wg.Wait() }

// ReplicaFallbacks returns how many recoveries had to fall back to the buddy
// replica because the primary copy was missing or damaged.
func (t *TieredStorage) ReplicaFallbacks() int { return int(t.fallbacks.Load()) }

// Demotions returns how many frames were demoted to the cold tier.
func (t *TieredStorage) Demotions() int { return int(t.demotions.Load()) }

// LostErr returns the first demotion error where every configured copy
// failed (the wave survives only in memory), or nil.
func (t *TieredStorage) LostErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lostErr
}

// StageImage implements WaveStorage. The image may be any codec frame; the
// staged bytes are kept verbatim (the in-memory model of stable storage, as
// MemoryStorage) and only the frame's header is read: the wave it belongs to
// and, for a compressed or delta frame, the image length and checksum it pins
// (what AdoptImage later checks an offered image against). A frame whose
// header does not parse (e.g. an injected corruption) still stages: the damage
// is detected when recovery walks the chain, preserving FaultStorage's
// detected-corruption regime.
func (t *TieredStorage) StageImage(rank int, image *buf.Buffer) (func() error, func(), error) {
	entry := &hotEntry{rep: image.Retain()}
	raw := entry.rep.Bytes()

	wave := -1
	if meta, err := DecodeMeta(raw); err == nil {
		wave = meta.Wave
	}
	selfDesc := true
	if kind, err := Frame(raw); err == nil {
		selfDesc = kind.SelfDescribing()
		if kind == KindFull {
			entry.full = entry.rep.Retain()
		} else if wave >= 0 {
			entry.pinLen, entry.pinSum, entry.adoptable = pinnedImage(raw)
		}
	}

	committed := false
	commit := func() error {
		committed = true
		t.commitStaged(rank, wave, entry, selfDesc)
		return nil
	}
	abort := func() {
		if !committed {
			entry.release()
		}
	}
	return commit, abort, nil
}

// AdoptImage offers the tier the full v2 image of a wave it has published, so
// the hot entry can serve recovery without reconstructing its frame. The tier
// takes its own reference, and only if the image's length and FNV-1a equal
// the ones pinned in the staged frame's header.
func (t *TieredStorage) AdoptImage(rank, wave int, full *buf.Buffer) {
	t.mu.Lock()
	e := t.hot[rank][wave]
	t.mu.Unlock()
	// adoptable and the pins are written once, before the entry is published.
	if e == nil || !e.adoptable || uint64(full.Len()) != e.pinLen || fnv1a(full.Bytes()) != e.pinSum {
		return
	}
	t.mu.Lock()
	if t.hot[rank][wave] == e && e.full == nil {
		e.full = full.Retain()
	}
	t.mu.Unlock()
}

// commitStaged publishes a staged entry: installs it in the hot ring, queues
// the async demotion, evicts beyond the ring size, and applies anchor GC when
// the wave is self-describing. It takes over the entry's references.
func (t *TieredStorage) commitStaged(rank, wave int, entry *hotEntry, selfDesc bool) {
	var drop []*hotEntry

	t.mu.Lock()
	if wave < 0 {
		// Undecodable meta (a corrupted frame): index it after the latest so
		// recovery finds — and rejects — it.
		wave = t.latest[rank] + 1
	}
	if t.hot[rank] == nil {
		t.hot[rank] = make(map[int]*hotEntry)
		t.pending[rank] = make(map[int]*buf.Buffer)
	}
	if old := t.hot[rank][wave]; old != nil {
		drop = append(drop, old)
		delete(t.hot[rank], wave)
	}
	if t.cfg.HotWaves > 0 {
		t.hot[rank][wave] = entry
	} else {
		drop = append(drop, entry)
	}
	t.latest[rank] = wave

	// Write-through: cold demotion starts from its own reference, so hot
	// eviction never races the demotion worker. stale is the pending
	// reference of an overwritten wave whose demotion is still in flight.
	stale := t.pending[rank][wave]
	t.pending[rank][wave] = entry.rep.Retain()
	demoteRef := entry.rep.Retain()
	t.wg.Add(1)
	if !t.cfg.SyncDemotion {
		go t.demote(rank, wave, demoteRef)
	}

	anchored := false
	if selfDesc && wave > t.floor[rank] {
		// Anchor GC: recovery chains never walk past a self-describing wave,
		// so everything older is superseded (the durable-wave invariant).
		t.floor[rank] = wave
		for w, e := range t.hot[rank] {
			if w < wave {
				drop = append(drop, e)
				delete(t.hot[rank], w)
			}
		}
		anchored = true
		t.wg.Add(1)
		if !t.cfg.SyncDemotion {
			go t.gcCold(rank, wave)
		}
	}

	// Evict the oldest hot waves beyond the ring size.
	for len(t.hot[rank]) > t.cfg.HotWaves {
		oldest := -1
		for w := range t.hot[rank] {
			if oldest < 0 || w < oldest {
				oldest = w
			}
		}
		drop = append(drop, t.hot[rank][oldest])
		delete(t.hot[rank], oldest)
	}
	t.mu.Unlock()

	for _, e := range drop {
		e.release()
	}
	if stale != nil {
		stale.Release()
	}
	if t.cfg.SyncDemotion {
		t.demote(rank, wave, demoteRef)
		if anchored {
			t.gcCold(rank, wave)
		}
	}
}

// demote writes one frame to the cold tier (and replica), then drops it from
// the pending set. It owns the passed reference.
func (t *TieredStorage) demote(rank, wave int, rep *buf.Buffer) {
	defer t.wg.Done()
	frame := rep.Bytes()
	errP := t.cfg.Cold.Put(rank, wave, frame)
	var errR error
	if t.cfg.Replica != nil {
		errR = t.cfg.Replica.Put(rank, wave, frame)
	} else {
		errR = errP
	}
	t.demotions.Add(1)

	t.mu.Lock()
	if p := t.pending[rank][wave]; p == rep {
		// Still this frame's entry (not one that overwrote the wave since).
		delete(t.pending[rank], wave)
		defer p.Release()
	}
	floor := t.floor[rank]
	if errP != nil && errR != nil && t.lostErr == nil {
		t.lostErr = fmt.Errorf("checkpoint: tiered: demotion of rank %d wave %d lost every copy: %w", rank, wave, errP)
	}
	t.mu.Unlock()
	rep.Release()

	if wave < floor {
		// An anchor landed while this older wave was in flight: finish its GC.
		t.cfg.Cold.Delete(rank, wave)
		if t.cfg.Replica != nil {
			t.cfg.Replica.Delete(rank, wave)
		}
	}
}

// gcCold deletes cold frames superseded by a new anchor.
func (t *TieredStorage) gcCold(rank, anchor int) {
	defer t.wg.Done()
	for _, cold := range []ColdStore{t.cfg.Cold, t.cfg.Replica} {
		if cold == nil {
			continue
		}
		waves, err := cold.Waves(rank)
		if err != nil {
			continue
		}
		for _, w := range waves {
			if w < anchor {
				cold.Delete(rank, w)
			}
		}
	}
}

// frameFor fetches the staged representation of (rank, wave): hot ring, then
// pending demotions, then the cold tiers in preference order. A frame served
// from memory comes with a reference pinning it, which the caller releases
// when done reading; cold frames come with nil. fromReplica reports that the
// bytes came from the buddy copy.
func (t *TieredStorage) frameFor(rank, wave int, preferReplica bool) (frame []byte, ref *buf.Buffer, fromReplica bool, err error) {
	t.mu.Lock()
	if e := t.hot[rank][wave]; e != nil {
		ref = e.rep.Retain()
	} else if p := t.pending[rank][wave]; p != nil {
		ref = p.Retain()
	}
	t.mu.Unlock()
	if ref != nil {
		return ref.Bytes(), ref, false, nil
	}

	first, second := t.cfg.Cold, t.cfg.Replica
	if preferReplica && t.cfg.Replica != nil {
		first, second = t.cfg.Replica, t.cfg.Cold
	}
	out, errP := first.Get(rank, wave)
	if errP == nil {
		return out, nil, first != t.cfg.Cold, nil
	}
	if second == nil || second == first {
		return nil, nil, false, errP
	}
	out, errS := second.Get(rank, wave)
	if errS != nil {
		return nil, nil, false, errP
	}
	return out, nil, second != t.cfg.Cold, nil
}

// maxChainWalk bounds a recovery chain walk; a chain longer than this can
// only come from corrupt base-wave pointers.
const maxChainWalk = 1 << 16

// loadChain reconstructs the full image of (rank, latest) by walking delta
// frames back to a self-describing anchor and applying them forward. Frames
// served from memory are read in place, pinned for the duration of the walk.
func (t *TieredStorage) loadChain(rank, latest int, preferReplica bool) (*Checkpoint, bool, error) {
	var frames [][]byte
	var refs []*buf.Buffer
	defer func() {
		for _, ref := range refs {
			ref.Release()
		}
	}()
	usedReplica := false
	wave := latest
	for {
		fr, ref, fromRep, err := t.frameFor(rank, wave, preferReplica)
		if err != nil {
			return nil, usedReplica, fmt.Errorf("checkpoint: tiered: rank %d wave %d: %w", rank, wave, err)
		}
		if ref != nil {
			refs = append(refs, ref)
		}
		usedReplica = usedReplica || fromRep
		frames = append(frames, fr)
		kind, err := Frame(fr)
		if err != nil {
			return nil, usedReplica, err
		}
		if kind.SelfDescribing() {
			break
		}
		bw, err := DeltaBaseWave(fr)
		if err != nil {
			return nil, usedReplica, err
		}
		if bw >= wave || len(frames) > maxChainWalk {
			return nil, usedReplica, fmt.Errorf("checkpoint: tiered: rank %d: non-decreasing delta chain at wave %d", rank, wave)
		}
		wave = bw
	}

	var full []byte
	for i := len(frames) - 1; i >= 0; i-- {
		var err error
		full, err = ReconstructFull(frames[i], full)
		if err != nil {
			return nil, usedReplica, err
		}
	}
	cp, err := Decode(full)
	if err != nil {
		return nil, usedReplica, err
	}
	return cp, usedReplica, nil
}

// coldLatest finds the newest cold wave of a rank when the store has no
// in-memory record (a TieredStorage reopened over an existing cold tier).
func (t *TieredStorage) coldLatest(rank int) (int, bool) {
	for _, cold := range []ColdStore{t.cfg.Cold, t.cfg.Replica} {
		if cold == nil {
			continue
		}
		if waves, err := cold.Waves(rank); err == nil && len(waves) > 0 {
			return waves[len(waves)-1], true
		}
	}
	return 0, false
}

// Load implements Storage. Fast path: decode the hot materialized image.
// Slow path: chain walk from the cold tier, retried replica-first when the
// primary chain is missing or fails verification.
func (t *TieredStorage) Load(rank int) (*Checkpoint, bool, error) {
	t.mu.Lock()
	latest, ok := t.latest[rank]
	var full *buf.Buffer
	if ok {
		if e := t.hot[rank][latest]; e != nil && e.full != nil {
			full = e.full.Retain()
		}
	}
	t.mu.Unlock()

	if full != nil {
		cp, err := Decode(full.Bytes())
		full.Release()
		if err == nil {
			return cp, true, nil
		}
	}
	if !ok {
		if latest, ok = t.coldLatest(rank); !ok {
			return nil, false, nil
		}
	}

	cp, usedReplica, err := t.loadChain(rank, latest, false)
	if err != nil {
		if t.cfg.Replica == nil {
			return nil, false, err
		}
		cp2, _, err2 := t.loadChain(rank, latest, true)
		if err2 != nil {
			return nil, false, err
		}
		t.fallbacks.Add(1)
		return cp2, true, nil
	}
	if usedReplica {
		t.fallbacks.Add(1)
	}
	return cp, true, nil
}

// Save implements the one-phase Storage path.
func (t *TieredStorage) Save(cp *Checkpoint) error {
	if err := cp.Validate(); err != nil {
		return err
	}
	image, err := EncodeBuffer(cp)
	if err != nil {
		return err
	}
	commit, abort, err := t.StageImage(cp.Rank, image)
	image.Release()
	if err != nil {
		return err
	}
	if err := commit(); err != nil {
		abort()
		return err
	}
	return nil
}

// Ranks lists ranks with a durable wave in any tier, sorted.
func (t *TieredStorage) Ranks() ([]int, error) {
	seen := make(map[int]bool)
	t.mu.Lock()
	for r := range t.latest {
		seen[r] = true
	}
	t.mu.Unlock()
	for _, cold := range []ColdStore{t.cfg.Cold, t.cfg.Replica} {
		if cold == nil {
			continue
		}
		if ranks, err := cold.Ranks(); err == nil {
			for _, r := range ranks {
				seen[r] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out, nil
}

var _ WaveStorage = (*TieredStorage)(nil)

// MemColdStore is an in-memory ColdStore: the cold tier of choice for tests
// and benchmarks (the paper's measurements exclude checkpoint I/O).
type MemColdStore struct {
	mu     sync.Mutex
	frames map[int]map[int][]byte
}

// NewMemColdStore creates an empty in-memory cold store.
func NewMemColdStore() *MemColdStore {
	return &MemColdStore{frames: make(map[int]map[int][]byte)}
}

func (m *MemColdStore) Put(rank, wave int, frame []byte) error {
	cp := append([]byte(nil), frame...)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.frames[rank] == nil {
		m.frames[rank] = make(map[int][]byte)
	}
	m.frames[rank][wave] = cp
	return nil
}

func (m *MemColdStore) Get(rank, wave int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	frame, ok := m.frames[rank][wave]
	if !ok {
		return nil, ErrNoFrame
	}
	return append([]byte(nil), frame...), nil
}

func (m *MemColdStore) Delete(rank, wave int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.frames[rank], wave)
	return nil
}

func (m *MemColdStore) Waves(rank int) ([]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.frames[rank]))
	for w := range m.frames[rank] {
		out = append(out, w)
	}
	sort.Ints(out)
	return out, nil
}

func (m *MemColdStore) Ranks() ([]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.frames))
	for r, waves := range m.frames {
		if len(waves) > 0 {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out, nil
}

// DirColdStore is a directory-backed ColdStore: one subdirectory per rank,
// one frame file per wave, written temp-then-rename like DirStorage.
type DirColdStore struct {
	dir string
	mu  sync.Mutex
	seq int
}

// NewDirColdStore creates (if needed) and uses the given directory.
func NewDirColdStore(dir string) (*DirColdStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create cold dir: %w", err)
	}
	return &DirColdStore{dir: dir}, nil
}

func (d *DirColdStore) rankDir(rank int) string {
	return filepath.Join(d.dir, fmt.Sprintf("rank-%06d", rank))
}

func (d *DirColdStore) path(rank, wave int) string {
	return filepath.Join(d.rankDir(rank), fmt.Sprintf("wave-%09d.ckpt", wave))
}

func (d *DirColdStore) Put(rank, wave int, frame []byte) error {
	if err := os.MkdirAll(d.rankDir(rank), 0o755); err != nil {
		return fmt.Errorf("checkpoint: cold put: %w", err)
	}
	d.mu.Lock()
	d.seq++
	n := d.seq
	d.mu.Unlock()
	tmp := fmt.Sprintf("%s.%d.tmp", d.path(rank, wave), n)
	if err := os.WriteFile(tmp, frame, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: cold put: %w", err)
	}
	if err := os.Rename(tmp, d.path(rank, wave)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: cold put: %w", err)
	}
	return nil
}

func (d *DirColdStore) Get(rank, wave int) ([]byte, error) {
	raw, err := os.ReadFile(d.path(rank, wave))
	if os.IsNotExist(err) {
		return nil, ErrNoFrame
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: cold get: %w", err)
	}
	return raw, nil
}

func (d *DirColdStore) Delete(rank, wave int) error {
	err := os.Remove(d.path(rank, wave))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint: cold delete: %w", err)
	}
	return nil
}

func (d *DirColdStore) Waves(rank int) ([]int, error) {
	entries, err := os.ReadDir(d.rankDir(rank))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: cold list: %w", err)
	}
	var out []int
	for _, e := range entries {
		var wave int
		if _, err := fmt.Sscanf(e.Name(), "wave-%d.ckpt", &wave); err == nil && !isTmp(e.Name()) {
			out = append(out, wave)
		}
	}
	sort.Ints(out)
	return out, nil
}

func (d *DirColdStore) Ranks() ([]int, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: cold list: %w", err)
	}
	var out []int
	for _, e := range entries {
		var rank int
		if _, err := fmt.Sscanf(e.Name(), "rank-%d", &rank); err == nil && e.IsDir() {
			out = append(out, rank)
		}
	}
	sort.Ints(out)
	return out, nil
}

// FaultColdStore decorates a ColdStore with the same rule machinery as
// FaultStorage: OpStage targets Put, OpLoad targets Get. It is how chaos
// scenarios damage one cold copy to drive the replica-fallback path.
type FaultColdStore struct {
	inner ColdStore
	rs    *ruleSet
}

// NewFaultColdStore wraps a ColdStore with fault rules (OpStage/OpLoad only).
func NewFaultColdStore(inner ColdStore, rules ...FaultRule) (*FaultColdStore, error) {
	for i, r := range rules {
		if r.Op == OpCommit {
			return nil, fmt.Errorf("rule %d: cold tier has no commit operation", i)
		}
	}
	rs, err := newRuleSet(rules)
	if err != nil {
		return nil, err
	}
	return &FaultColdStore{inner: inner, rs: rs}, nil
}

// Injections returns how many faults each rule injected, in rule order.
func (f *FaultColdStore) Injections() []int { return f.rs.injections() }

// corruptFrame flips bytes past the codec header of a copy, leaving the
// magic valid so the damage surfaces at reconstruction, not at read.
func corruptFrame(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	for i := codecHeaderLen; i < len(out); i++ {
		out[i] ^= 0xff
	}
	return out
}

func (f *FaultColdStore) Put(rank, wave int, frame []byte) error {
	if r := f.rs.match(OpStage, rank); r != nil {
		switch r.Mode {
		case ModeFail:
			return fmt.Errorf("checkpoint: injected cold put fault (rank %d wave %d)", rank, wave)
		case ModeStall:
			r.stall()
		case ModeCorrupt:
			frame = corruptFrame(frame)
		}
	}
	return f.inner.Put(rank, wave, frame)
}

func (f *FaultColdStore) Get(rank, wave int) ([]byte, error) {
	if r := f.rs.match(OpLoad, rank); r != nil {
		switch r.Mode {
		case ModeFail:
			return nil, fmt.Errorf("checkpoint: injected cold get fault (rank %d wave %d)", rank, wave)
		case ModeStall:
			r.stall()
		case ModeCorrupt:
			frame, err := f.inner.Get(rank, wave)
			if err != nil {
				return nil, err
			}
			return corruptFrame(frame), nil
		}
	}
	return f.inner.Get(rank, wave)
}

func (f *FaultColdStore) Delete(rank, wave int) error { return f.inner.Delete(rank, wave) }

func (f *FaultColdStore) Waves(rank int) ([]int, error) { return f.inner.Waves(rank) }

func (f *FaultColdStore) Ranks() ([]int, error) { return f.inner.Ranks() }

var (
	_ ColdStore = (*MemColdStore)(nil)
	_ ColdStore = (*DirColdStore)(nil)
	_ ColdStore = (*FaultColdStore)(nil)
)
