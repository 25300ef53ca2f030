package clustering

import "sort"

// The reference partitioner: the full-rescore Kernighan–Lin loop that
// Partition's incremental gain table replaced, kept verbatim except that it
// reads its own dense [src][dst] copy of the profile. Every candidate swap
// re-expands the node assignment to ranks and recomputes the objective from
// scratch, so it is slow (O(nodes² · nnz) per pass) but obviously right.
// Partition must return exactly its assignment.

// denseProfile is the reference's view of a profile: a row-major dense
// matrix plus its non-zero entries in row-major order.
type denseProfile struct {
	*Profile
	bytes [][]uint64
	nz    []refEdge
}

type refEdge struct {
	src, dst int
	b        uint64
}

func newDenseProfile(p *Profile) *denseProfile {
	d := &denseProfile{Profile: p, bytes: make([][]uint64, p.Ranks)}
	for i := range d.bytes {
		d.bytes[i] = make([]uint64, p.Ranks)
		for j := range d.bytes[i] {
			if b := p.At(i, j); b != 0 {
				d.bytes[i][j] = b
				d.nz = append(d.nz, refEdge{i, j, b})
			}
		}
	}
	return d
}

// ReferencePartition is Partition computed by the reference partitioner.
func ReferencePartition(p *Profile, k int, obj Objective) ([]int, error) {
	if p == nil || p.Ranks == 0 || k <= 0 || k >= p.Nodes() {
		return Partition(p, k, obj) // the special cases never refine
	}
	d := newDenseProfile(p)
	nodeCluster := refPartitionNodes(d, k, obj)
	out := make([]int, p.Ranks)
	for i := range out {
		out[i] = nodeCluster[p.NodeOf(i)]
	}
	return compactIDs(out), nil
}

func (d *denseProfile) nodeTraffic() [][]uint64 {
	n := d.Nodes()
	m := make([][]uint64, n)
	for i := range m {
		m[i] = make([]uint64, n)
	}
	for i := range d.bytes {
		for j, b := range d.bytes[i] {
			m[d.NodeOf(i)][d.NodeOf(j)] += b
		}
	}
	return m
}

func refPartitionNodes(p *denseProfile, k int, obj Objective) []int {
	nodes := p.Nodes()
	traffic := p.nodeTraffic()
	target := (nodes + k - 1) / k // max nodes per cluster

	assign := make([]int, nodes)
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)

	order := make([]int, nodes)
	for i := range order {
		order[i] = i
	}
	weight := func(n int) uint64 {
		var w uint64
		for j := 0; j < nodes; j++ {
			w += traffic[n][j] + traffic[j][n]
		}
		return w
	}
	sort.Slice(order, func(a, b int) bool { return weight(order[a]) > weight(order[b]) })

	for _, n := range order {
		best, bestGain := -1, int64(-1)
		for c := 0; c < k; c++ {
			if sizes[c] >= target {
				continue
			}
			var gain int64
			for j := 0; j < nodes; j++ {
				if assign[j] == c {
					gain += int64(traffic[n][j] + traffic[j][n])
				}
			}
			gain = gain*int64(k) - int64(sizes[c])
			if gain > bestGain {
				bestGain, best = gain, c
			}
		}
		if best < 0 {
			best = 0
			for c := 1; c < k; c++ {
				if sizes[c] < sizes[best] {
					best = c
				}
			}
		}
		assign[n] = best
		sizes[best]++
	}

	refRefine(p, assign, obj)
	return assign
}

func refRefine(p *denseProfile, assign []int, obj Objective) {
	nodes := len(assign)
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		current := refObjectiveValue(p, refRankAssignment(p, assign), obj)
		for a := 0; a < nodes; a++ {
			for b := a + 1; b < nodes; b++ {
				if assign[a] == assign[b] {
					continue
				}
				assign[a], assign[b] = assign[b], assign[a]
				v := refObjectiveValue(p, refRankAssignment(p, assign), obj)
				if v < current {
					current = v
					improved = true
				} else {
					assign[a], assign[b] = assign[b], assign[a]
				}
			}
		}
		if !improved {
			return
		}
	}
}

func refRankAssignment(p *denseProfile, nodeAssign []int) []int {
	out := make([]int, p.Ranks)
	for i := range out {
		out[i] = nodeAssign[p.NodeOf(i)]
	}
	return out
}

func refObjectiveValue(p *denseProfile, clusterOf []int, obj Objective) float64 {
	var total uint64
	perRank := make([]uint64, p.Ranks)
	for _, e := range p.nz {
		if clusterOf[e.src] != clusterOf[e.dst] {
			perRank[e.src] += e.b
			total += e.b
		}
	}
	switch obj {
	case MinMaxPerProcess:
		var max uint64
		for _, b := range perRank {
			if b > max {
				max = b
			}
		}
		return float64(max)
	default:
		return float64(total)
	}
}
