package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/app"
	"repro/internal/logstore"
	"repro/internal/mpi"
)

// bruteRollbackSet is the reference the rollback set must agree with: the
// union, as a rank set, of every group a fault fails.
func bruteRollbackSet(view *EpochView, faults []Fault) map[int]bool {
	set := make(map[int]bool)
	for _, f := range faults {
		for r, g := range view.GroupOf() {
			if g == view.Group(f.Rank) {
				set[r] = true
			}
		}
	}
	return set
}

// checkRollbackSet compares newRollbackSet with the brute-force union: has
// agrees on every rank, the group ids are strictly ascending, their members
// are exactly the brute-force ranks, and leader is the lowest of them.
func checkRollbackSet(t *testing.T, view *EpochView, faults []Fault) {
	t.Helper()
	set := newRollbackSet(view, faults)
	want := bruteRollbackSet(view, faults)
	for r := range view.GroupOf() {
		if set.has(r) != want[r] {
			t.Fatalf("faults %v: has(%d) = %v, brute force %v", faults, r, set.has(r), want[r])
		}
	}
	if !slices.IsSorted(set.groups) || len(slices.Compact(slices.Clone(set.groups))) != len(set.groups) {
		t.Fatalf("faults %v: groups %v are not distinct and ascending", faults, set.groups)
	}
	var got, wantRanks []int
	for _, g := range set.groups {
		got = append(got, view.Members(g)...)
	}
	sort.Ints(got)
	for r := range want {
		wantRanks = append(wantRanks, r)
	}
	sort.Ints(wantRanks)
	if !reflect.DeepEqual(got, wantRanks) {
		t.Fatalf("faults %v: set ranks %v, brute force %v", faults, got, wantRanks)
	}
	if set.leader() != wantRanks[0] {
		t.Fatalf("faults %v: leader %d, want the lowest rank %d", faults, set.leader(), wantRanks[0])
	}
}

// randomFaults draws 1–4 faults on distinct ranks; with probability 1/2 the
// second fault lands in the first fault's group.
func randomFaults(rng *rand.Rand, view *EpochView) []Fault {
	n := len(view.GroupOf())
	used := map[int]bool{}
	var faults []Fault
	add := func(r int) {
		if !used[r] {
			used[r] = true
			faults = append(faults, Fault{Rank: r, Iteration: 3})
		}
	}
	add(rng.Intn(n))
	for k := 1 + rng.Intn(4); len(faults) < k && len(used) < n; {
		if len(faults) == 1 && rng.Intn(2) == 0 {
			members := view.Members(view.Group(faults[0].Rank))
			if len(members) > 1 {
				add(members[rng.Intn(len(members))])
				continue
			}
		}
		add(rng.Intn(n))
	}
	return faults
}

// TestRollbackSetMatchesBruteForce checks the group-id rollback set against
// the rank-set union it replaces, on random dense partitions (1–64 groups,
// up to 512 ranks) and on the view an adaptive run ends with after an epoch
// switch.
func TestRollbackSetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ranks := 1 + rng.Intn(512)
		groups := 1 + rng.Intn(min(64, ranks))
		groupOf := make([]int, ranks)
		for r := range groupOf {
			groupOf[r] = rng.Intn(groups)
		}
		for g, r := range rng.Perm(ranks)[:groups] {
			groupOf[r] = g // every group id names at least one rank
		}
		view, err := NewEpochView(0, groupOf)
		if err != nil {
			t.Fatalf("NewEpochView: %v", err)
		}
		for i := 0; i < 8; i++ {
			checkRollbackSet(t, view, randomFaults(rng, view))
		}
	}

	eng := runEngine(t, app.NewPhaseShift(32, 2), adaptiveConfig(contiguous8(), 2, 12), nil)
	view := eng.currentView()
	if view.Epoch() == 0 {
		t.Fatal("phase-shifting adaptive run ended in the seed epoch; want a switched view")
	}
	for i := 0; i < 64; i++ {
		checkRollbackSet(t, view, randomFaults(rng, view))
	}
}

// TestReplayChannelsOrder feeds replayChannels hand-filled stores and a set
// of two groups out of three, and checks that it visits the same (dst, src,
// comm) channels in the same order as the nested destination × sender loops
// it replaces.
func TestReplayChannelsOrder(t *testing.T) {
	// Interleaved groups, so neither world order nor group order alone gives
	// the replay order.
	groupOf := []int{2, 0, 1, 0, 2, 1, 0, 1, 2}
	view, err := NewEpochView(0, groupOf)
	if err != nil {
		t.Fatalf("NewEpochView: %v", err)
	}
	set := newRollbackSet(view, []Fault{{Rank: 4, Iteration: 1}, {Rank: 3, Iteration: 1}})
	if !reflect.DeepEqual(set.groups, []int{0, 2}) {
		t.Fatalf("set groups = %v, want [0 2]", set.groups)
	}

	rng := rand.New(rand.NewSource(7))
	stores := make([]*logstore.Store, len(groupOf))
	for s := range stores {
		stores[s] = logstore.New()
		// Every sender logs to a random subset of peers on comms 0–2, in
		// shuffled order, so the store's channel order comes from its sort.
		for _, i := range rng.Perm(3 * len(groupOf)) {
			d, comm := i%len(groupOf), i/len(groupOf)
			if d == s || rng.Intn(3) == 0 {
				continue
			}
			stores[s].Append(logstore.Record{Env: mpi.Envelope{Source: s, Dest: d, CommID: comm, Seq: 1}})
		}
	}

	var want []replayChan
	for d := range groupOf {
		if !set.has(d) {
			continue
		}
		for s := range groupOf {
			if set.has(s) {
				continue
			}
			for _, key := range stores[s].Channels() {
				if key.Peer == d {
					want = append(want, replayChan{dst: d, src: s, comm: key.Comm})
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture logs nothing into the set")
	}
	if got := replayChannels(stores, set); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay order\n got %v\nwant %v", got, want)
	}
}
