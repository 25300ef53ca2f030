package clustering

// Adaptive-repartitioning support: windowed profiles built from live
// per-(src, dst) byte counters, and the hysteresis rule that decides whether
// a candidate partition is worth migrating to. The engine evaluates the rule
// at checkpoint-wave boundaries (the only points where an epoch may open);
// everything here is pure computation over profiles, so the decision is
// deterministic given the same counters.

import "slices"

// Hysteresis is the migration-cost threshold of adaptive clustering: a
// candidate partition is adopted only when its projected logged-volume
// saving over the recent traffic window clears both bounds. Stable workloads
// therefore converge to the static answer — the candidate equals the current
// partition, or the saving stays below the cost of migrating (a forced
// synchronous checkpoint wave plus communicator reconstruction).
type Hysteresis struct {
	// MinSavingFraction is the minimum relative reduction of the window's
	// logged volume ((current - candidate) / current). Zero selects the
	// default of 0.10.
	MinSavingFraction float64
	// MinSavingBytes is the minimum absolute reduction in bytes over the
	// window. Zero selects the default of 1024; negative disables the bound.
	MinSavingBytes int64
}

// DefaultHysteresis returns the default thresholds.
func DefaultHysteresis() Hysteresis {
	return Hysteresis{MinSavingFraction: 0.10, MinSavingBytes: 1024}
}

func (h Hysteresis) normalized() Hysteresis {
	if h.MinSavingFraction == 0 {
		h.MinSavingFraction = 0.10
	}
	if h.MinSavingBytes == 0 {
		h.MinSavingBytes = 1024
	}
	return h
}

// ShouldRepartition reports whether moving from current to candidate is
// worth it on the given (windowed) profile: the candidate must log strictly
// fewer bytes and the saving must clear both hysteresis bounds.
func ShouldRepartition(p *Profile, current, candidate []int, h Hysteresis) bool {
	h = h.normalized()
	curTotal, _ := LoggedBytes(p, current)
	candTotal, _ := LoggedBytes(p, candidate)
	if candTotal >= curTotal {
		return false
	}
	saving := curTotal - candTotal
	if h.MinSavingBytes > 0 && saving < uint64(h.MinSavingBytes) {
		return false
	}
	return float64(saving) >= h.MinSavingFraction*float64(curTotal)
}

// SameAssignment reports whether two cluster assignments are identical.
func SameAssignment(a, b []int) bool { return slices.Equal(a, b) }

// WindowProfileSparse builds the profile of the traffic between two
// cumulative snapshots, cur minus prev, pair by pair. prev may be nil (the
// first window starts at zero). Snapshots are per-source destination→bytes
// maps, nil map meaning no traffic from that source; src == dst entries are
// ignored. Counters are cumulative (they only grow), so every pair present
// in prev is present in cur and the element-wise difference covers all
// window traffic. The live profile at 65k ranks holds O(nnz) counters, and
// building the window never materializes an n×n matrix.
func WindowProfileSparse(cur, prev []map[int]uint64, ranksPerNode int) *Profile {
	p := NewProfile(len(cur), ranksPerNode)
	for src, m := range cur {
		for dst, b := range m {
			if prev != nil && prev[src] != nil {
				b -= prev[src][dst]
			}
			if src != dst && b > 0 {
				p.Add(src, dst, b)
			}
		}
	}
	return p
}
