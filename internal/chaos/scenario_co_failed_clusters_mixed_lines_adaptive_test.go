package chaos

import (
	"reflect"
	"testing"
)

// Behind an adaptive epoch switch, one node of each new group fails at one
// boundary and the groups may restore different waves of the new epoch.
func TestScenarioCoFailedClustersMixedLinesAdaptive(t *testing.T) {
	res := checkScenario(t, "co-failed-clusters-mixed-lines-adaptive")
	if res.Epochs < 2 {
		t.Fatalf("epochs = %d, want >= 2 (the scenario requires a repartition)", res.Epochs)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(res.CrashedRanks, want) {
		t.Fatalf("crashed ranks = %v, want %v", res.CrashedRanks, want)
	}
	if res.RecoveryEvents != 1 {
		t.Fatalf("recovery events = %d, want 1", res.RecoveryEvents)
	}
}
