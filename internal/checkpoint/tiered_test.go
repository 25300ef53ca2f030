package checkpoint

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/buf"
)

// tierImage encodes a drifting-state checkpoint for (rank, wave).
func tierImage(t *testing.T, rank, wave int) []byte {
	t.Helper()
	cp := driftCheckpoint(256, wave)
	cp.Rank = rank
	return encodeAt(t, cp, wave)
}

func stageFrame(t *testing.T, ts *TieredStorage, rank int, frame []byte) {
	t.Helper()
	b := buf.Copy(frame)
	commit, abort, err := ts.StageImage(rank, b)
	b.Release()
	if err != nil {
		t.Fatalf("stage: %v", err)
	}
	if err := commit(); err != nil {
		abort()
		t.Fatalf("commit: %v", err)
	}
}

func loadEqual(t *testing.T, ts *TieredStorage, rank int, wantImage []byte) {
	t.Helper()
	got, ok, err := ts.Load(rank)
	if err != nil || !ok {
		t.Fatalf("load rank %d: ok=%v err=%v", rank, ok, err)
	}
	want, err := Decode(wantImage)
	if err != nil {
		t.Fatalf("decode want: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rank %d: recovered checkpoint differs from staged wave %d", rank, want.Wave)
	}
}

func TestTieredStageLoadRoundTrip(t *testing.T) {
	cold := NewMemColdStore()
	ts := NewTieredStorage(TieredConfig{Cold: cold})
	last := map[int][]byte{}
	for rank := 0; rank < 2; rank++ {
		for wave := 1; wave <= 3; wave++ {
			img := tierImage(t, rank, wave)
			stageFrame(t, ts, rank, img)
			last[rank] = img
		}
	}
	for rank, img := range last {
		loadEqual(t, ts, rank, img)
	}
	ranks, err := ts.Ranks()
	if err != nil || !reflect.DeepEqual(ranks, []int{0, 1}) {
		t.Fatalf("ranks %v err %v", ranks, err)
	}
	if _, ok, err := ts.Load(9); ok || err != nil {
		t.Fatalf("absent rank: ok=%v err=%v", ok, err)
	}

	// Raw full images are self-describing anchors, so anchor GC must leave
	// exactly the newest wave in the cold tier once demotions settle.
	ts.Quiesce()
	for rank := 0; rank < 2; rank++ {
		waves, err := cold.Waves(rank)
		if err != nil || !reflect.DeepEqual(waves, []int{3}) {
			t.Fatalf("rank %d: cold waves after anchor GC = %v err %v", rank, waves, err)
		}
	}
	if ts.ReplicaFallbacks() != 0 {
		t.Fatalf("unexpected replica fallbacks: %d", ts.ReplicaFallbacks())
	}
	if err := ts.LostErr(); err != nil {
		t.Fatalf("lost copies: %v", err)
	}
}

// TestTieredDeltaChainColdWalk disables the hot ring so recovery must walk a
// full→delta→delta chain out of the cold tier.
func TestTieredDeltaChainColdWalk(t *testing.T) {
	ts := NewTieredStorage(TieredConfig{HotWaves: -1})
	fulls := [][]byte{tierImage(t, 0, 0), tierImage(t, 0, 1), tierImage(t, 0, 2)}
	stageFrame(t, ts, 0, fulls[0])
	for w := 1; w <= 2; w++ {
		stageFrame(t, ts, 0, mustDelta(t, fulls[w], fulls[w-1], w-1))
	}
	ts.Quiesce()
	loadEqual(t, ts, 0, fulls[2])
	if ts.ReplicaFallbacks() != 0 {
		t.Fatalf("chain walk should not have needed a replica")
	}
}

// TestTieredHotFastPath proves the steady-state recovery path never touches
// the cold tier: the primary fails every Get, yet Load succeeds — from the
// hot frames while the delta entry is unmaterialized, from the adopted image
// once the committer has offered it.
func TestTieredHotFastPath(t *testing.T) {
	broken, err := NewFaultColdStore(NewMemColdStore(),
		FaultRule{Op: OpLoad, Mode: ModeFail, Rank: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStorage(TieredConfig{Cold: broken})
	fulls := [][]byte{tierImage(t, 0, 0), tierImage(t, 0, 1)}
	stageFrame(t, ts, 0, fulls[0])
	stageFrame(t, ts, 0, mustDelta(t, fulls[1], fulls[0], 0))
	loadEqual(t, ts, 0, fulls[1])
	if ts.hot[0][1].full != nil {
		t.Fatal("a delta frame nobody offered an image for is materialized")
	}

	img := buf.Copy(fulls[1])
	defer img.Release()
	ts.AdoptImage(0, 1, img)
	if ts.hot[0][1].full != img || img.Refs() != 2 {
		t.Fatalf("matching image not adopted by reference (refs %d)", img.Refs())
	}
	loadEqual(t, ts, 0, fulls[1])
}

// stageThrough stages one frame through a decorator stack the way the
// committer does — stage, commit, then offer the wave's full image to the tier
// underneath — and returns the offered image (the caller owns one reference).
func stageThrough(t *testing.T, ws WaveStorage, ts *TieredStorage, rank, wave int, frame *buf.Buffer, full []byte) *buf.Buffer {
	t.Helper()
	img := buf.Copy(full)
	if bytes.Equal(frame.Bytes(), full) {
		img.Release()
		img = frame.Retain() // a raw full image is staged and kept as one buffer
	}
	commit, abort, err := ws.StageImage(rank, frame)
	if err != nil {
		t.Fatalf("stage: %v", err)
	}
	if err := commit(); err != nil {
		abort()
		t.Fatalf("commit: %v", err)
	}
	ts.AdoptImage(rank, wave, img)
	return img
}

// TestTieredAdoptionNeverMasksCorruptFrame: a frame FaultStorage corrupted in
// place on its way into the tier must not be hidden behind the clean image
// the committer offers after the wave published. Recovery has to see — and
// reject — the damaged frame, for every frame kind.
func TestTieredAdoptionNeverMasksCorruptFrame(t *testing.T) {
	base, full := tierImage(t, 0, 1), tierImage(t, 0, 2)
	delta, err := EncodeDeltaFrameBuffer(full, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	zfull, err := EncodeCompressedFrameBuffer(full)
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string]*buf.Buffer{"delta": delta, "zfull": zfull, "full": buf.Copy(full)} {
		for _, corrupt := range []bool{false, true} {
			ts := NewTieredStorage(TieredConfig{})
			stageFrame(t, ts, 0, base)
			var rules []FaultRule
			if corrupt {
				rules = append(rules, FaultRule{Op: OpStage, Mode: ModeCorrupt, Rank: -1})
			}
			fs, err := NewFaultStorage(ts, rules...)
			if err != nil {
				t.Fatal(err)
			}
			staged := buf.Copy(frame.Bytes())
			img := stageThrough(t, fs, ts, 0, 2, staged, full)
			ts.Quiesce()
			cp, ok, err := fs.Load(0)
			switch {
			case !corrupt:
				if err != nil || !ok || cp.Wave != 2 {
					t.Errorf("%s: clean wave: ok=%v err=%v", name, ok, err)
				}
				if wantRefs := 2; name != "full" && img.Refs() != wantRefs {
					t.Errorf("%s: clean image refs = %d, want %d (offered + adopted)", name, img.Refs(), wantRefs)
				}
			case err == nil:
				t.Errorf("%s: recovery returned wave %d although the staged frame was corrupted", name, cp.Wave)
			case name != "full" && img.Refs() != 1:
				t.Errorf("%s: the tier adopted a clean image for a corrupt frame (refs %d)", name, img.Refs())
			}
			img.Release()
			staged.Release()
		}
		frame.Release()
	}
}

// TestTieredAdoptionRejectsMismatch: only the image the staged frame's header
// pins is adopted, and an entry indexed without decodable meta never adopts.
func TestTieredAdoptionRejectsMismatch(t *testing.T) {
	base, full, other := tierImage(t, 0, 1), tierImage(t, 0, 2), tierImage(t, 1, 2)
	ts := NewTieredStorage(TieredConfig{})
	stageFrame(t, ts, 0, base)
	stageFrame(t, ts, 0, mustDelta(t, full, base, 1))

	offer := func(wave int, image []byte) int {
		b := buf.Copy(image)
		defer b.Release()
		ts.AdoptImage(0, wave, b)
		return b.Refs()
	}
	if refs := offer(2, other); refs != 1 {
		t.Errorf("image of another rank adopted (refs %d)", refs)
	}
	if refs := offer(2, full[:len(full)-1]); refs != 1 {
		t.Errorf("truncated image adopted (refs %d)", refs)
	}
	if refs := offer(7, full); refs != 1 {
		t.Errorf("image adopted for a wave that is not hot (refs %d)", refs)
	}
	if refs := offer(2, full); refs != 2 {
		t.Errorf("matching image not adopted (refs %d)", refs)
	}
	if refs := offer(2, full); refs != 1 {
		t.Errorf("second offer replaced the adopted image (refs %d)", refs)
	}

	// Valid delta magic, undecodable meta: the tier indexes the frame after
	// the latest wave — exactly where the committer's wave 3 would sit.
	next := tierImage(t, 0, 3)
	broken := mustDelta(t, next, full, 2)
	for i := codecHeaderLen; i < codecHeaderLen+maxVarintLen; i++ {
		broken[i] = 0xff
	}
	if _, err := DecodeMeta(broken); err == nil {
		t.Fatal("test frame's meta still decodes")
	}
	stageFrame(t, ts, 0, broken)
	if ts.hot[0][3] == nil {
		t.Fatal("undecodable frame not indexed after the latest wave")
	}
	if refs := offer(3, next); refs != 1 {
		t.Errorf("image adopted for an undecodable-meta frame (refs %d)", refs)
	}
	if _, _, err := ts.Load(0); err == nil {
		t.Error("recovery accepted the undecodable latest wave")
	}
}

// TestTieredReleasesAdoptedImages walks one rank through delta chains, forced
// anchors, ring eviction, an overwrite and Quiesce, and requires every frame
// and every adopted image to be released as its entry leaves the hot ring.
func TestTieredReleasesAdoptedImages(t *testing.T) {
	for _, cfg := range []TieredConfig{{}, {SyncDemotion: true}, {HotWaves: -1, SyncDemotion: true}} {
		ts := NewTieredStorage(cfg)
		const waves = 9
		var frames, images []*buf.Buffer
		prev := tierImage(t, 0, 0)
		for w := 1; w <= waves; w++ {
			full := tierImage(t, 0, w)
			var frame *buf.Buffer
			var err error
			if w%4 == 1 {
				frame, err = EncodeCompressedFrameBuffer(full) // anchor
			} else {
				frame, err = EncodeDeltaFrameBuffer(full, prev, w-1)
			}
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame)
			images = append(images, stageThrough(t, ts, ts, 0, w, frame, full))
			if w == 7 { // the same wave staged again replaces its entry
				again := buf.Copy(frame.Bytes())
				frames = append(frames, again)
				images = append(images, stageThrough(t, ts, ts, 0, w, again, full))
			}
			prev = full
		}
		ts.Quiesce()
		loadEqual(t, ts, 0, prev)

		hot := 0
		for _, e := range ts.hot[0] {
			hot++
			if cfg.HotWaves >= 0 && e.full == nil {
				t.Errorf("HotWaves %d: hot entry without adopted image", cfg.HotWaves)
			}
		}
		if want := ts.cfg.HotWaves; hot > want || (want > 0 && hot == 0) {
			t.Errorf("HotWaves %d: %d hot entries, want at most %d", cfg.HotWaves, hot, want)
		}
		held := 0
		for i := range frames {
			held += frames[i].Refs() - 1 + images[i].Refs() - 1
		}
		if held != 2*hot {
			t.Errorf("HotWaves %d sync %v: tier holds %d references after quiesce, want %d (frame and image of %d hot entries)",
				cfg.HotWaves, cfg.SyncDemotion, held, 2*hot, hot)
		}
		for i := range frames {
			frames[i].Release()
			images[i].Release()
		}
	}
}

func TestTieredReplicaFallbackOnPrimaryGetFailure(t *testing.T) {
	broken, err := NewFaultColdStore(NewMemColdStore(),
		FaultRule{Op: OpLoad, Mode: ModeFail, Rank: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStorage(TieredConfig{
		HotWaves: -1,
		Cold:     broken,
		Replica:  NewMemColdStore(),
	})
	img := tierImage(t, 2, 5)
	stageFrame(t, ts, 2, img)
	ts.Quiesce()
	loadEqual(t, ts, 2, img)
	if ts.ReplicaFallbacks() != 1 {
		t.Fatalf("replica fallbacks = %d, want 1", ts.ReplicaFallbacks())
	}
}

// TestTieredReplicaFallbackOnColdCorruption damages the primary *copy* (the
// write path corrupts what lands on the primary), so recovery reads a frame
// that fails verification and must degrade to the buddy replica.
func TestTieredReplicaFallbackOnColdCorruption(t *testing.T) {
	corrupting, err := NewFaultColdStore(NewMemColdStore(),
		FaultRule{Op: OpStage, Mode: ModeCorrupt, Rank: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStorage(TieredConfig{
		HotWaves: -1,
		Cold:     corrupting,
		Replica:  NewMemColdStore(),
	})
	img := tierImage(t, 0, 4)
	stageFrame(t, ts, 0, img)
	ts.Quiesce()
	if got := corrupting.Injections(); got[0] == 0 {
		t.Fatalf("corruption rule never fired")
	}
	loadEqual(t, ts, 0, img)
	if ts.ReplicaFallbacks() != 1 {
		t.Fatalf("replica fallbacks = %d, want 1", ts.ReplicaFallbacks())
	}
}

// TestTieredCorruptionWithoutReplicaErrors pins the detected-corruption
// regime: with a single damaged copy and no buddy, recovery must error —
// never return a wrong checkpoint.
func TestTieredCorruptionWithoutReplicaErrors(t *testing.T) {
	corrupting, err := NewFaultColdStore(NewMemColdStore(),
		FaultRule{Op: OpStage, Mode: ModeCorrupt, Rank: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStorage(TieredConfig{HotWaves: -1, Cold: corrupting})
	stageFrame(t, ts, 0, tierImage(t, 0, 1))
	ts.Quiesce()
	if _, _, err := ts.Load(0); err == nil {
		t.Fatalf("load of a corrupt sole copy did not error")
	}
}

// TestTieredUndecodableFrameDetectedAtRecovery: a frame whose meta cannot be
// decoded still stages (FaultStorage's corrupt-at-stage regime) and surfaces
// as a recovery error, not a silent drop.
func TestTieredUndecodableFrameDetectedAtRecovery(t *testing.T) {
	ts := NewTieredStorage(TieredConfig{HotWaves: -1})
	stageFrame(t, ts, 0, tierImage(t, 0, 1))
	stageFrame(t, ts, 0, []byte("not a checkpoint frame at all"))
	ts.Quiesce()
	if _, _, err := ts.Load(0); err == nil {
		t.Fatalf("recovery accepted an undecodable latest wave")
	}
}

func TestTieredAnchorGCWithDeltaChain(t *testing.T) {
	cold := NewMemColdStore()
	ts := NewTieredStorage(TieredConfig{Cold: cold})
	fulls := make([][]byte, 5)
	for w := range fulls {
		fulls[w] = tierImage(t, 0, w)
	}
	stageFrame(t, ts, 0, fulls[1])
	stageFrame(t, ts, 0, mustDelta(t, fulls[2], fulls[1], 1))
	stageFrame(t, ts, 0, mustDelta(t, fulls[3], fulls[2], 2))
	stageFrame(t, ts, 0, fulls[4]) // forced full: the new anchor
	ts.Quiesce()
	waves, err := cold.Waves(0)
	if err != nil || !reflect.DeepEqual(waves, []int{4}) {
		t.Fatalf("cold waves after anchor = %v err %v", waves, err)
	}
	loadEqual(t, ts, 0, fulls[4])
}

func TestTieredSave(t *testing.T) {
	ts := NewTieredStorage(TieredConfig{})
	cp := driftCheckpoint(64, 3)
	cp.Rank = 1
	cp.Wave = 3
	if err := ts.Save(cp); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, ok, err := ts.Load(1)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("saved and loaded checkpoints differ")
	}
}

func TestTieredLostCopiesReported(t *testing.T) {
	failing, err := NewFaultColdStore(NewMemColdStore(),
		FaultRule{Op: OpStage, Mode: ModeFail, Rank: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStorage(TieredConfig{Cold: failing})
	stageFrame(t, ts, 0, tierImage(t, 0, 1))
	ts.Quiesce()
	if ts.LostErr() == nil {
		t.Fatalf("both copies failed but LostErr is nil")
	}
	if ts.Demotions() != 1 {
		t.Fatalf("demotions = %d, want 1", ts.Demotions())
	}
}

func TestDirColdStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cs, err := NewDirColdStore(filepath.Join(dir, "cold"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Get(0, 0); err != ErrNoFrame {
		t.Fatalf("absent get err = %v, want ErrNoFrame", err)
	}
	if err := cs.Put(3, 7, []byte("frame-a")); err != nil {
		t.Fatal(err)
	}
	if err := cs.Put(3, 9, []byte("frame-b")); err != nil {
		t.Fatal(err)
	}
	if err := cs.Put(3, 7, []byte("frame-a2")); err != nil {
		t.Fatal(err)
	}
	got, err := cs.Get(3, 7)
	if err != nil || string(got) != "frame-a2" {
		t.Fatalf("get = %q err %v", got, err)
	}
	waves, err := cs.Waves(3)
	if err != nil || !reflect.DeepEqual(waves, []int{7, 9}) {
		t.Fatalf("waves = %v err %v", waves, err)
	}
	ranks, err := cs.Ranks()
	if err != nil || !reflect.DeepEqual(ranks, []int{3}) {
		t.Fatalf("ranks = %v err %v", ranks, err)
	}
	if err := cs.Delete(3, 7); err != nil {
		t.Fatal(err)
	}
	if err := cs.Delete(3, 7); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := cs.Get(3, 7); err != ErrNoFrame {
		t.Fatalf("deleted get err = %v, want ErrNoFrame", err)
	}
}

// TestTieredThroughDirColdStore runs the tier end to end over the
// directory-backed cold store, hot ring disabled.
func TestTieredThroughDirColdStore(t *testing.T) {
	cs, err := NewDirColdStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTieredStorage(TieredConfig{HotWaves: -1, Cold: cs})
	fulls := [][]byte{tierImage(t, 1, 0), tierImage(t, 1, 1)}
	stageFrame(t, ts, 1, fulls[0])
	stageFrame(t, ts, 1, mustDelta(t, fulls[1], fulls[0], 0))
	ts.Quiesce()
	loadEqual(t, ts, 1, fulls[1])

	// A fresh tier over the same directory must recover from cold alone.
	reopened := NewTieredStorage(TieredConfig{HotWaves: -1, Cold: cs})
	loadEqual(t, reopened, 1, fulls[1])
}

func TestTieredAbortReleasesStaged(t *testing.T) {
	ts := NewTieredStorage(TieredConfig{})
	b := buf.Copy(tierImage(t, 0, 1))
	_, abort, err := ts.StageImage(0, b)
	if err != nil {
		t.Fatal(err)
	}
	abort()
	if b.Refs() != 1 {
		t.Fatalf("refs after abort = %d, want 1 (caller's)", b.Refs())
	}
	b.Release()
	if _, ok, err := ts.Load(0); ok || err != nil {
		t.Fatalf("aborted stage visible: ok=%v err=%v", ok, err)
	}
}
