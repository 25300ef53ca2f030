package chaos

import (
	"reflect"
	"testing"
)

// checkSameLineReplays checks the replay rule's prediction for one recovery
// of two co-failed clusters whose only candidate waves are the first one and
// the one captured a boundary before the failure. A cluster restores the
// older wave exactly when its newer one is canceled. On the same line, every
// inter-cluster channel is consistent and nothing is replayed; on mixed
// lines, the newer cluster's log is the only source of the messages the
// older one must receive again.
func checkSameLineReplays(t *testing.T, res *Result) {
	t.Helper()
	if res.CanceledWaves == 1 {
		if res.ReplayedRecords == 0 {
			t.Fatal("mixed lines (one newer wave canceled), yet nothing was replayed from the newer cluster's log")
		}
		return
	}
	if res.ReplayedRecords != 0 {
		t.Fatalf("both clusters restored the same wave (%d canceled), yet %d records were replayed", res.CanceledWaves, res.ReplayedRecords)
	}
}

// Both clusters fail at one boundary while one cluster's newer wave is held
// draining, so the failed clusters restore different waves — in both orders.
func TestScenarioCoFailedClustersMixedLines(t *testing.T) {
	for _, name := range []string{"co-failed-clusters-mixed-lines", "co-failed-clusters-mixed-lines-reversed"} {
		res := checkScenario(t, name)
		if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(res.RolledBackRanks, want) {
			t.Fatalf("%s: rolled-back ranks = %v, want the whole world %v", name, res.RolledBackRanks, want)
		}
		if res.RecoveryEvents != 1 {
			t.Fatalf("%s: recovery events = %d, want 1 (one correlated failure)", name, res.RecoveryEvents)
		}
		if res.CanceledWaves == 0 {
			t.Fatalf("%s: no wave canceled: the held cluster's newer wave must be discarded", name)
		}
		checkSameLineReplays(t, res)
	}
}
