package clustering

import (
	"fmt"
	"math/rand"
	"testing"
)

// requireReference fails unless Partition and the full-rescore reference
// return the same assignment.
func requireReference(t *testing.T, label string, p *Profile, k int, obj Objective) []int {
	t.Helper()
	got, err := Partition(p, k, obj)
	if err != nil {
		t.Fatalf("%s: Partition: %v", label, err)
	}
	want, err := ReferencePartition(p, k, obj)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if !SameAssignment(got, want) {
		t.Fatalf("%s: Partition diverged from the full-rescore reference:\ngot  %v\nwant %v", label, got, want)
	}
	return got
}

// equivalenceProfile draws a seeded random profile: 1–8 ranks per node and
// 3–21 nodes, or 300 ranks on 38 nodes when wide; every rank sends to 1–8
// peers (1–2 when wide), near (ring-like) or anywhere, with per-pair
// volumes log-uniform in [1, 2⁴⁰]. Node counts stay small because the
// reference costs O(nodes² · nnz) per pass and every k in [2, nodes) is
// checked.
func equivalenceProfile(rng *rand.Rand, wide bool) *Profile {
	rpn := 1 + rng.Intn(8)
	nodes := 3 + rng.Intn(1+rng.Intn(18)) // skewed toward few nodes
	degree := 1 + rng.Intn(8)
	if wide {
		rpn, nodes, degree = 8, 38, 1+rng.Intn(2)
	}
	ranks := min(300, (nodes-1)*rpn+1+rng.Intn(rpn))
	near := rng.Intn(2) == 0
	p := NewProfile(ranks, rpn)
	for src := 0; src < ranks; src++ {
		for d := 0; d < degree; d++ {
			dst := rng.Intn(ranks)
			if near {
				dst = (src + 1 + rng.Intn(3*rpn)) % ranks
			}
			e := rng.Intn(41)
			p.Add(src, dst, 1+uint64(rng.Int63n(1<<e)))
		}
	}
	return p
}

// TestPartitionMatchesReference pins the incremental refinement to the
// full-rescore loop it replaced: on 500 seeded random profiles, for every
// cluster count that reaches the refinement pass and both objectives, the
// assignments are identical. The reference reads a dense copy of each
// profile, so this also checks the map profile against a dense matrix.
func TestPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1970))
	for i := 0; i < 500; i++ {
		p := equivalenceProfile(rng, i%250 == 249)
		for k := 2; k < p.Nodes(); k++ {
			for _, obj := range []Objective{MinTotalLogged, MinMaxPerProcess} {
				label := fmt.Sprintf("profile %d: ranks=%d rpn=%d k=%d obj=%s", i, p.Ranks, p.RanksPerNode, k, obj)
				requireReference(t, label, p, k, obj)
			}
		}
	}
}

// TestPartitionMatchesReferenceOnTies pins tie order on equal-weight nodes,
// where many candidate swaps have zero gain: only the strict float64
// comparison keeps these assignments. Accepting ties (<=) changes both.
func TestPartitionMatchesReferenceOnTies(t *testing.T) {
	// Seven nodes on a ring, 100 B each way between neighbours.
	ring := NewProfile(7, 1)
	for i := 0; i < 7; i++ {
		ring.Add(i, (i+1)%7, 100)
		ring.Add((i+1)%7, i, 100)
	}
	// Six nodes, each sending 100 B to the next two.
	skip := NewProfile(6, 1)
	for i := 0; i < 6; i++ {
		skip.Add(i, (i+1)%6, 100)
		skip.Add(i, (i+2)%6, 100)
	}
	for _, tc := range []struct {
		name string
		p    *Profile
		k    int
		obj  Objective
		want string
	}{
		{"ring", ring, 3, MinTotalLogged, "[0 0 0 1 1 1 2]"},
		{"skip", skip, 2, MinMaxPerProcess, "[0 1 0 1 0 1]"},
		{"no traffic", NewProfile(12, 1), 3, MinTotalLogged, "[0 1 2 0 1 2 0 1 2 0 1 2]"},
	} {
		got := requireReference(t, tc.name, tc.p, tc.k, tc.obj)
		if fmt.Sprint(got) != tc.want {
			t.Fatalf("%s: partition %v, want %s", tc.name, got, tc.want)
		}
	}
}

// TestPartitionMatchesReferenceAbove2to53 drives totals past float64's
// exact-integer range (and past 2⁶⁴, where the uint64 sums wrap): improving
// swaps that the float64 comparison rounds away must be rejected exactly as
// the full rescore rejects them.
func TestPartitionMatchesReferenceAbove2to53(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 20; i++ {
		ranks := 8 + rng.Intn(40)
		p := NewProfile(ranks, 1+rng.Intn(2))
		for src := 0; src < ranks; src++ {
			for d := 0; d < 3; d++ {
				p.Add(src, rng.Intn(ranks), 1<<(50+rng.Intn(12))+uint64(rng.Intn(1<<10)))
			}
		}
		for k := 2; k < p.Nodes(); k++ {
			for _, obj := range []Objective{MinTotalLogged, MinMaxPerProcess} {
				requireReference(t, fmt.Sprintf("profile %d: ranks=%d k=%d obj=%s", i, ranks, k, obj), p, k, obj)
			}
		}
	}
}
