package chaos

import (
	"reflect"
	"testing"
)

// Under full sender-based logging two co-failed ranks restore different
// waves: each one's log replays what the other must receive again, and only
// the crashed ranks roll back.
func TestScenarioCoFailedRanksMixedLinesFullLog(t *testing.T) {
	res := checkScenario(t, "co-failed-ranks-mixed-lines-full-log")
	if want := []int{1, 2}; !reflect.DeepEqual(res.RolledBackRanks, want) {
		t.Fatalf("rolled-back ranks = %v, want exactly the crashed ranks %v", res.RolledBackRanks, want)
	}
	if res.RecoveryEvents != 1 {
		t.Fatalf("recovery events = %d, want 1", res.RecoveryEvents)
	}
	if res.ReplayedRecords == 0 {
		t.Fatal("full-log recovery replays the surviving neighbours' messages to the crashed ranks")
	}
}
