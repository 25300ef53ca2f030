package chaos

import (
	"reflect"
	"testing"
)

// Both clusters crash at one boundary: the entire world rolls back in a
// single correlated recovery — SPBC's coordinated-checkpoint worst case.
func TestScenarioWorldCrash(t *testing.T) {
	res := checkScenario(t, "world-crash")
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(res.RolledBackRanks, want) {
		t.Fatalf("rolled-back ranks = %v, want the whole world %v", res.RolledBackRanks, want)
	}
	if res.RecoveryEvents != 1 {
		t.Fatalf("recovery events = %d, want 1 (one correlated world failure)", res.RecoveryEvents)
	}
	// Which wave each cluster restores depends on how far its newer wave had
	// drained; the replay count follows from that, not from the absence of
	// a surviving cluster.
	checkSameLineReplays(t, res)
}
