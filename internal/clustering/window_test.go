package clustering

import (
	"math/rand"
	"testing"
)

// TestWindowProfileSparseMatchesDense checks the window builder against the
// element-wise difference of the same cumulative snapshots held as dense
// [src][dst] matrices.
func TestWindowProfileSparseMatchesDense(t *testing.T) {
	const ranks = 6
	cur := make([][]uint64, ranks)
	prev := make([][]uint64, ranks)
	curS := make([]map[int]uint64, ranks)
	prevS := make([]map[int]uint64, ranks)
	rng := rand.New(rand.NewSource(11))
	for i := range cur {
		cur[i] = make([]uint64, ranks)
		prev[i] = make([]uint64, ranks)
		for j := range cur[i] {
			if i == j || rng.Intn(2) == 0 {
				continue
			}
			p := uint64(rng.Intn(100))
			c := p + uint64(rng.Intn(100)) // cumulative: cur >= prev
			prev[i][j], cur[i][j] = p, c
			if c > 0 {
				if curS[i] == nil {
					curS[i] = map[int]uint64{}
				}
				curS[i][j] = c
			}
			if p > 0 {
				if prevS[i] == nil {
					prevS[i] = map[int]uint64{}
				}
				prevS[i][j] = p
			}
		}
	}
	for _, withPrev := range []bool{false, true} {
		ps := prevS
		if !withPrev {
			ps = nil
		}
		s := WindowProfileSparse(curS, ps, 2)
		for i := 0; i < ranks; i++ {
			for j := 0; j < ranks; j++ {
				want := cur[i][j]
				if withPrev {
					want -= prev[i][j]
				}
				if s.At(i, j) != want {
					t.Fatalf("withPrev=%v window(%d,%d): dense %d, sparse %d", withPrev, i, j, want, s.At(i, j))
				}
			}
		}
	}
}
