package clustering

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomProfile draws a sparse random communication profile.
func randomProfile(rng *rand.Rand) *Profile {
	ranks := 2 + rng.Intn(31) // 2..32
	rpn := []int{1, 2, 4}[rng.Intn(3)]
	p := NewProfile(ranks, rpn)
	pairs := rng.Intn(ranks * 4)
	for i := 0; i < pairs; i++ {
		src, dst := rng.Intn(ranks), rng.Intn(ranks)
		p.Add(src, dst, uint64(1+rng.Intn(1<<16)))
	}
	return p
}

// TestPartitionPropertyRandomProfiles is the randomized contract of
// Partition: for any profile and cluster count the result must validate,
// use dense cluster ids starting at zero (what core.Policy requires of a
// group assignment), and be deterministic — byte-identical across 10
// repeated runs on the same profile.
func TestPartitionPropertyRandomProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(20130731))
	cases := 60
	if testing.Short() {
		cases = 15
	}
	for i := 0; i < cases; i++ {
		p := randomProfile(rng)
		k := 1 + rng.Intn(p.Ranks+2) // deliberately includes k > ranks
		for _, obj := range []Objective{MinTotalLogged, MinMaxPerProcess} {
			label := fmt.Sprintf("case %d: ranks=%d rpn=%d k=%d obj=%s", i, p.Ranks, p.RanksPerNode, k, obj)
			out, err := Partition(p, k, obj)
			if err != nil {
				t.Fatalf("%s: Partition: %v", label, err)
			}
			if err := Validate(p, out, k, k < p.Ranks); err != nil {
				t.Fatalf("%s: Validate: %v", label, err)
			}
			// Dense ids: every id in [0, max] used, starting at 0.
			max := -1
			for _, c := range out {
				if c > max {
					max = c
				}
			}
			used := make([]bool, max+1)
			for _, c := range out {
				if c < 0 {
					t.Fatalf("%s: negative cluster id in %v", label, out)
				}
				used[c] = true
			}
			for id, ok := range used {
				if !ok {
					t.Fatalf("%s: cluster id %d unused in %v (ids must be dense)", label, id, out)
				}
			}
			// Determinism: repeated runs on the same profile are identical.
			want := fmt.Sprint(out)
			for run := 0; run < 9; run++ {
				again, err := Partition(p, k, obj)
				if err != nil {
					t.Fatalf("%s: re-run: %v", label, err)
				}
				if got := fmt.Sprint(again); got != want {
					t.Fatalf("%s: nondeterministic partition:\nrun 0: %s\nrun %d: %s", label, want, run+1, got)
				}
			}
		}
	}
}

// TestCompactIDs pins the renumbering helper: dense inputs pass through
// unchanged, sparse inputs are renumbered preserving relative order.
func TestCompactIDs(t *testing.T) {
	dense := []int{0, 1, 1, 2}
	if got := fmt.Sprint(compactIDs(append([]int(nil), dense...))); got != fmt.Sprint(dense) {
		t.Fatalf("dense input changed: %s", got)
	}
	sparse := []int{0, 3, 3, 5}
	if got := fmt.Sprint(compactIDs(sparse)); got != "[0 1 1 2]" {
		t.Fatalf("sparse input compacted to %s, want [0 1 1 2]", got)
	}
}

func TestShouldRepartitionHysteresis(t *testing.T) {
	// Profile: 0->1 heavy, 2->3 heavy, nothing else.
	p := NewProfile(4, 1)
	p.Add(0, 1, 100000)
	p.Add(2, 3, 100000)
	good := []int{0, 0, 1, 1}  // logs nothing
	bad := []int{0, 1, 0, 1}   // logs everything
	okish := []int{0, 0, 1, 1} // same as good

	h := DefaultHysteresis()
	if !ShouldRepartition(p, bad, good, h) {
		t.Fatalf("a 100%% saving must clear the default hysteresis")
	}
	if ShouldRepartition(p, good, bad, h) {
		t.Fatalf("a regression must never repartition")
	}
	if ShouldRepartition(p, good, okish, h) {
		t.Fatalf("an identical partition must never repartition")
	}
	// Absolute floor: tiny savings stay put even at 100% relative saving.
	tiny := NewProfile(4, 1)
	tiny.Add(0, 1, 100)
	if ShouldRepartition(tiny, bad, good, h) {
		t.Fatalf("a %d-byte saving must stay below the %d-byte floor", 100, h.MinSavingBytes)
	}
	if !ShouldRepartition(tiny, bad, good, Hysteresis{MinSavingBytes: -1}) {
		t.Fatalf("a negative floor disables the absolute bound")
	}
}

func TestWindowProfile(t *testing.T) {
	prev := []map[int]uint64{{1: 10}, {0: 5}}
	cur := []map[int]uint64{{1: 30}, {0: 5}}
	w := WindowProfileSparse(cur, prev, 1)
	if w.At(0, 1) != 20 || w.At(1, 0) != 0 || w.TotalBytes() != 20 {
		t.Fatalf("window 0->1 = %d, 1->0 = %d, want delta {0->1: 20}", w.At(0, 1), w.At(1, 0))
	}
	if got := WindowProfileSparse(cur, nil, 1); got.At(0, 1) != 30 || got.At(1, 0) != 5 {
		t.Fatalf("nil prev must yield the cumulative profile, got 0->1 = %d, 1->0 = %d", got.At(0, 1), got.At(1, 0))
	}
}
