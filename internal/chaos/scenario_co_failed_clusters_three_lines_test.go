package chaos

import (
	"reflect"
	"testing"
)

// Three clusters fail at one boundary and restore up to three different
// waves; every inter-cluster channel between them is served by the same
// per-channel replay/suppress rule.
func TestScenarioCoFailedClustersThreeLines(t *testing.T) {
	res := checkScenario(t, "co-failed-clusters-three-lines")
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(res.RolledBackRanks, want) {
		t.Fatalf("rolled-back ranks = %v, want the whole world %v", res.RolledBackRanks, want)
	}
	if res.RecoveryEvents != 1 {
		t.Fatalf("recovery events = %d, want 1", res.RecoveryEvents)
	}
	if res.StorageInjections != 1 {
		t.Fatalf("storage injections = %d, want 1 (the stalled stage)", res.StorageInjections)
	}
}
