// Package clustering reimplements the clustering tool the paper relies on
// (Ropars et al., "On the Use of Cluster-Based Partial Message Logging to
// Improve Fault Tolerance for MPI HPC Applications", Euro-Par 2011): given a
// communication profile of an application, it partitions the processes into
// k clusters so that the volume of inter-cluster traffic — which is exactly
// the volume the hybrid protocol has to log — is minimized.
//
// Like the paper's setup, ranks running on the same physical node are always
// placed in the same cluster (a node failure takes down all of them, so
// splitting a node buys no containment). The partitioner therefore works at
// node granularity: nodes are assigned to clusters by a greedy growth pass
// followed by Kernighan–Lin-style refinement swaps, either minimizing the
// total logged volume (the paper's objective) or the maximum per-process
// logging rate (the alternative discussed in Section 6.6).
//
// Both passes run on a node-level symmetric traffic matrix W, built once per
// Partition call, and a gain table conn[n][c] holding node n's traffic into
// cluster c. The greedy pass reads a node's gain toward every cluster from
// its conn row; refinement scores a swap's change of the logged total in
// O(1) from four conn entries and W, and keeps the table current in O(nodes)
// per accepted swap. A refinement pass therefore costs O(nodes²), whatever
// the rank count. (MinMaxPerProcess is not a sum over edges, so it rescores
// each candidate swap over a rank adjacency instead, in O(nnz) and without
// allocating.) The gains are exact integer sums, the scan order is fixed
// and a swap is accepted on the same float64 comparison of the objective a
// from-scratch rescore would make, so the partition is the one that rescore
// finds, bit for bit (the tests keep that rescore as the reference).
package clustering

import (
	"fmt"
	"sort"
)

// Objective selects what the partitioner minimizes.
type Objective int

const (
	// MinTotalLogged minimizes the total inter-cluster volume (the paper's
	// objective).
	MinTotalLogged Objective = iota
	// MinMaxPerProcess minimizes the maximum per-process logged volume (the
	// balanced alternative discussed in Section 6.6).
	MinMaxPerProcess
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MinTotalLogged:
		return "min-total-logged"
	case MinMaxPerProcess:
		return "min-max-per-process"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Profile is the communication profile of an application run: the number of
// bytes sent between every ordered pair of ranks, plus the node placement.
// Traffic is stored as per-source (dst → bytes) maps, so a profile costs
// O(communicating pairs) rather than O(ranks²): real HPC communication
// patterns touch O(degree) peers per rank, and at 65,536 ranks a dense
// matrix would be 32 GiB. Read it through At and ForEach.
type Profile struct {
	Ranks        int
	RanksPerNode int
	// out[i] maps destination → bytes for source i; rows are allocated
	// lazily on first traffic.
	out []map[int]uint64
}

// NewProfile allocates an empty profile.
func NewProfile(ranks, ranksPerNode int) *Profile {
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	return &Profile{Ranks: ranks, RanksPerNode: ranksPerNode, out: make([]map[int]uint64, ranks)}
}

// Add accumulates traffic from src to dst.
func (p *Profile) Add(src, dst int, bytes uint64) {
	if src < 0 || src >= p.Ranks || dst < 0 || dst >= p.Ranks || src == dst {
		return
	}
	m := p.out[src]
	if m == nil {
		m = make(map[int]uint64, 8)
		p.out[src] = m
	}
	m[dst] += bytes
}

// At returns the traffic from src to dst.
func (p *Profile) At(src, dst int) uint64 {
	if src < 0 || src >= p.Ranks || dst < 0 || dst >= p.Ranks {
		return 0
	}
	return p.out[src][dst]
}

// ForEach calls fn for every (src, dst) pair with non-zero traffic.
// Iteration order is unspecified (rows are maps), so fn must be
// order-insensitive — every aggregation in this package is a uint64 sum,
// which is exact in any order (modulo 2⁶⁴).
func (p *Profile) ForEach(fn func(src, dst int, bytes uint64)) {
	for src, m := range p.out {
		for dst, b := range m {
			if b != 0 {
				fn(src, dst, b)
			}
		}
	}
}

// Nodes returns the number of physical nodes implied by the placement.
func (p *Profile) Nodes() int {
	return (p.Ranks + p.RanksPerNode - 1) / p.RanksPerNode
}

// NodeOf returns the node hosting a rank.
func (p *Profile) NodeOf(rank int) int { return rank / p.RanksPerNode }

// TotalBytes returns the total traffic of the profile.
func (p *Profile) TotalBytes() uint64 {
	var t uint64
	p.ForEach(func(_, _ int, b uint64) { t += b })
	return t
}

// Partition assigns every rank to one of k clusters. Special cases follow the
// paper's evaluation: k >= Ranks yields one rank per cluster (pure message
// logging); k equal to the number of nodes yields one node per cluster (all
// inter-node messages logged). Otherwise nodes are grouped into k clusters of
// nearly equal node counts. Cluster ids in the result are always dense
// (every id in [0, max] is used), which is what core.Policy requires of a
// group assignment.
func Partition(p *Profile, k int, obj Objective) ([]int, error) {
	if p == nil || p.Ranks == 0 {
		return nil, fmt.Errorf("clustering: empty profile")
	}
	if k <= 0 {
		return nil, fmt.Errorf("clustering: cluster count must be positive, got %d", k)
	}
	if k >= p.Ranks {
		out := make([]int, p.Ranks)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	nodes := p.Nodes()
	if k >= nodes {
		out := make([]int, p.Ranks)
		for i := range out {
			out[i] = p.NodeOf(i) % k
		}
		return compactIDs(out), nil
	}
	nodeCluster := partitionNodes(p, k, obj)
	out := make([]int, p.Ranks)
	for i := range out {
		out[i] = nodeCluster[p.NodeOf(i)]
	}
	return compactIDs(out), nil
}

// compactIDs renumbers cluster ids densely. Used ids keep their relative
// order (the remapping is the identity when the input is already dense), so
// an assignment that never skipped an id is returned unchanged.
func compactIDs(assign []int) []int {
	max := -1
	for _, c := range assign {
		if c > max {
			max = c
		}
	}
	used := make([]bool, max+1)
	for _, c := range assign {
		used[c] = true
	}
	remap := make([]int, max+1)
	next := 0
	for id, ok := range used {
		if ok {
			remap[id] = next
			next++
		}
	}
	if next == max+1 {
		return assign // already dense
	}
	for i, c := range assign {
		assign[i] = remap[c]
	}
	return assign
}

// graph is the node-level view of a profile that the partitioner works on.
// All three tables are flat, so building one costs a constant number of
// allocations whatever the node count.
type graph struct {
	nodes, k int
	// w[n*nodes+m] is the traffic between nodes n and m, both directions
	// summed (W = T + Tᵀ of the node-level matrix T). The diagonal is zero:
	// intra-node traffic is never logged.
	w []uint64
	// assign[n] is node n's cluster, -1 while the greedy pass has not
	// placed it.
	assign []int
	// conn[n*k+c] = Σ w[n][j] over the nodes j ≠ n assigned to cluster c.
	conn []uint64
}

// newGraph aggregates the profile to node granularity. It also returns each
// node's total traffic, intra-node traffic counted in both directions, which
// orders the greedy pass.
func newGraph(p *Profile, k int) (*graph, []uint64) {
	nodes := p.Nodes()
	g := &graph{
		nodes:  nodes,
		k:      k,
		w:      make([]uint64, nodes*nodes),
		assign: make([]int, nodes),
		conn:   make([]uint64, nodes*k),
	}
	p.ForEach(func(i, j int, b uint64) {
		a, c := p.NodeOf(i), p.NodeOf(j)
		g.w[a*nodes+c] += b
		g.w[c*nodes+a] += b
	})
	weight := make([]uint64, nodes)
	for n := range weight {
		row := g.row(n)
		for _, b := range row {
			weight[n] += b
		}
		row[n] = 0
		g.assign[n] = -1
	}
	return g, weight
}

func (g *graph) row(n int) []uint64 { return g.w[n*g.nodes : (n+1)*g.nodes] }

// place assigns the unplaced node m to cluster c.
func (g *graph) place(m, c int) {
	g.assign[m] = c
	for n, b := range g.row(m) {
		g.conn[n*g.k+c] += b
	}
}

// swap exchanges the clusters of nodes a and b, updating conn in O(nodes).
func (g *graph) swap(a, b int) {
	A, B := g.assign[a], g.assign[b]
	g.assign[a], g.assign[b] = B, A
	rb := g.row(b)
	for n, wa := range g.row(a) {
		d := rb[n] - wa // conn[n][A] loses a and gains b; conn[n][B] the reverse
		g.conn[n*g.k+A] += d
		g.conn[n*g.k+B] -= d
	}
}

// cut returns the total inter-cluster traffic: what MinTotalLogged scores.
func (g *graph) cut() uint64 {
	var t uint64
	for n := 0; n < g.nodes; n++ {
		row := g.row(n)
		for m := n + 1; m < g.nodes; m++ {
			if g.assign[n] != g.assign[m] {
				t += row[m]
			}
		}
	}
	return t
}

// swapDelta returns how much cut() grows (modulo 2⁶⁴) if a and b, in
// different clusters A and B, swap: a's edges into A and b's into B become
// inter-cluster, their edges into the other's cluster stop being so, and the
// edge a–b stays cut (conn[a][B] and conn[b][A] both counted it).
func (g *graph) swapDelta(a, b int) uint64 {
	A, B := g.assign[a], g.assign[b]
	ca, cb := g.conn[a*g.k:], g.conn[b*g.k:]
	return ca[A] - ca[B] + cb[B] - cb[A] + 2*g.w[a*g.nodes+b]
}

// rankAdj is the rank-level profile in compressed sparse rows, destinations
// resolved to their nodes: what MinMaxPerProcess rescores a swap over.
type rankAdj struct {
	rpn   int
	off   []int // rank i's edges are [off[i], off[i+1])
	node  []int
	bytes []uint64
}

func newRankAdj(p *Profile) *rankAdj {
	r := &rankAdj{rpn: p.RanksPerNode, off: make([]int, p.Ranks+1)}
	p.ForEach(func(i, _ int, _ uint64) { r.off[i+1]++ })
	for i := 0; i < p.Ranks; i++ {
		r.off[i+1] += r.off[i]
	}
	nnz := r.off[p.Ranks]
	r.node, r.bytes = make([]int, nnz), make([]uint64, nnz)
	next := make([]int, p.Ranks)
	copy(next, r.off)
	p.ForEach(func(i, j int, b uint64) {
		e := next[i]
		next[i]++
		r.node[e], r.bytes[e] = p.NodeOf(j), b
	})
	return r
}

// maxLogged returns the largest per-rank logged volume under a node-level
// assignment: the max over ranks of LoggedBytes' perRank, in O(nnz + ranks)
// and without allocating.
func (r *rankAdj) maxLogged(assign []int) uint64 {
	var worst uint64
	for i := 0; i+1 < len(r.off); i++ {
		c := assign[i/r.rpn]
		var sent uint64
		for e := r.off[i]; e < r.off[i+1]; e++ {
			if assign[r.node[e]] != c {
				sent += r.bytes[e]
			}
		}
		if sent > worst {
			worst = sent
		}
	}
	return worst
}

// partitionNodes groups nodes into k clusters: greedy seeded growth followed
// by refinement swaps.
func partitionNodes(p *Profile, k int, obj Objective) []int {
	g, weight := newGraph(p, k)
	nodes := g.nodes
	target := (nodes + k - 1) / k // max nodes per cluster
	sizes := make([]int, k)

	// Order nodes by total traffic (heaviest first) so heavy communicators
	// seed and attract their peers.
	order := make([]int, nodes)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })

	for _, n := range order {
		conn := g.conn[n*k : (n+1)*k]
		best, bestGain := -1, int64(-1)
		for c := 0; c < k; c++ {
			if sizes[c] >= target {
				continue
			}
			// Gain: traffic toward nodes already in cluster c. Prefer
			// emptier clusters on ties to keep sizes balanced.
			gain := int64(conn[c])*int64(k) - int64(sizes[c])
			if gain > bestGain {
				bestGain, best = gain, c
			}
		}
		if best < 0 {
			// All clusters full up to target (can happen with rounding);
			// place in the smallest.
			best = 0
			for c := 1; c < k; c++ {
				if sizes[c] < sizes[best] {
					best = c
				}
			}
		}
		g.place(n, best)
		sizes[best]++
	}

	var adj *rankAdj
	if obj == MinMaxPerProcess {
		adj = newRankAdj(p)
	}
	g.refine(adj)
	return g.assign
}

// refine performs Kernighan–Lin-style pairwise swaps between nodes of
// different clusters while the objective improves (Kernighan & Lin, 1970).
//
// The scan is first-improvement: pairs a < b in index order, a swap kept as
// soon as the objective value, compared as float64, strictly drops; each of
// at most maxPasses passes re-baselines the objective from scratch. Only the
// scoring is incremental. Under MinTotalLogged a swap's new cut is the
// current cut plus swapDelta, read from the conn table in O(1) (the
// Fiduccia–Mattheyses gain bookkeeping, 1982), and an accepted swap updates
// conn in O(nodes). Under MinMaxPerProcess (adj non-nil) the swap is scored
// by a full allocation-free rescore over the rank adjacency. Both values are
// the exact uint64 a from-scratch LoggedBytes would give, so the accepted
// swaps, and hence the partition, are those of a full rescore, bit for bit.
func (g *graph) refine(adj *rankAdj) {
	value := g.cut
	score := func(a, b int, current uint64) uint64 { return current + g.swapDelta(a, b) }
	if adj != nil {
		value = func() uint64 { return adj.maxLogged(g.assign) }
		score = func(a, b int, _ uint64) uint64 {
			g.assign[a], g.assign[b] = g.assign[b], g.assign[a]
			v := adj.maxLogged(g.assign)
			g.assign[a], g.assign[b] = g.assign[b], g.assign[a]
			return v
		}
	}
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		current := value()
		for a := 0; a < g.nodes; a++ {
			for b := a + 1; b < g.nodes; b++ {
				if g.assign[a] == g.assign[b] {
					continue
				}
				if v := score(a, b, current); float64(v) < float64(current) {
					g.swap(a, b)
					current, improved = v, true
				}
			}
		}
		if !improved {
			return
		}
	}
}

// LoggedBytes returns, for a given cluster assignment, the total number of
// bytes that the hybrid protocol would log (inter-cluster traffic only) and
// the per-rank (sender-side) logged volume.
func LoggedBytes(p *Profile, clusterOf []int) (total uint64, perRank []uint64) {
	perRank = make([]uint64, p.Ranks)
	p.ForEach(func(i, j int, b uint64) {
		if clusterOf[i] != clusterOf[j] {
			perRank[i] += b
			total += b
		}
	})
	return total, perRank
}

// Validate checks that a cluster assignment is well-formed: every rank is
// assigned to a cluster in [0, k), every cluster in [0, k) used by the
// assignment is non-empty when k <= ranks, and ranks sharing a node share a
// cluster when nodeConstraint is true.
func Validate(p *Profile, clusterOf []int, k int, nodeConstraint bool) error {
	if len(clusterOf) != p.Ranks {
		return fmt.Errorf("clustering: assignment length %d != ranks %d", len(clusterOf), p.Ranks)
	}
	for r, c := range clusterOf {
		if c < 0 || c >= k {
			return fmt.Errorf("clustering: rank %d assigned to invalid cluster %d (k=%d)", r, c, k)
		}
	}
	if nodeConstraint && k < p.Ranks {
		for r := 1; r < p.Ranks; r++ {
			if p.NodeOf(r) == p.NodeOf(r-1) && clusterOf[r] != clusterOf[r-1] {
				return fmt.Errorf("clustering: ranks %d and %d share node %d but are in clusters %d and %d",
					r-1, r, p.NodeOf(r), clusterOf[r-1], clusterOf[r])
			}
		}
	}
	return nil
}

// ClusterMembers groups ranks by cluster.
func ClusterMembers(clusterOf []int) map[int][]int {
	out := make(map[int][]int)
	for r, c := range clusterOf {
		out[c] = append(out[c], r)
	}
	return out
}

// ClusterSizes returns the number of ranks per cluster index (length k).
func ClusterSizes(clusterOf []int, k int) []int {
	sizes := make([]int, k)
	for _, c := range clusterOf {
		if c >= 0 && c < k {
			sizes[c]++
		}
	}
	return sizes
}
