package chaos

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
)

// checkScenario runs one catalog scenario through the invariant checker and
// fails the test on any violation. The per-scenario test files (one file per
// scenario, Testworld-style) build on it.
func checkScenario(t *testing.T, name string) *Result {
	t.Helper()
	sc, ok := ByName(name)
	if !ok {
		t.Fatalf("scenario %q not in catalog", name)
	}
	res := Check(sc)
	if !res.Passed {
		t.Fatalf("scenario %s violated invariants: %v (run error: %q)", name, res.Violations, res.RunError)
	}
	return res
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, sc := range Catalog() {
		if sc.Name == "" {
			t.Fatal("catalog scenario without a name")
		}
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
	}
	if len(seen) < 8 {
		t.Fatalf("catalog has %d scenarios, want >= 8", len(seen))
	}
}

func TestCheckRejectsNativeProtocol(t *testing.T) {
	res := Check(Scenario{
		Name:     "native-chaos",
		Protocol: runner.ProtocolNative,
		Events:   []Event{NodeCrash(0, 1)},
	})
	if res.Passed {
		t.Fatal("native protocol must be rejected: it has no chaos surface")
	}
}

// TestDoubleFaultAcrossProtocols is the double-fault matrix: a second
// failure lands during rollback/replay under every recovering protocol (the
// native baseline is covered by the rejection test above — it cannot recover
// at all).
func TestDoubleFaultAcrossProtocols(t *testing.T) {
	for _, proto := range []runner.Protocol{
		runner.ProtocolCoordinated,
		runner.ProtocolFullLog,
		runner.ProtocolSPBC,
		runner.ProtocolSPBCAdaptive,
	} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			res := Check(Scenario{
				Name:     "double-fault-" + string(proto),
				Protocol: proto,
				Events: []Event{
					NodeCrash(2, 5),
					During(Recovery, core.Fault{Rank: 1, Iteration: 5}),
				},
			})
			if !res.Passed {
				t.Fatalf("double fault under %s violated invariants: %v (run error: %q)", proto, res.Violations, res.RunError)
			}
			if res.RecoveryEvents != 2 {
				t.Fatalf("recovery events = %d, want 2", res.RecoveryEvents)
			}
			if want := []int{1, 2}; !reflect.DeepEqual(res.CrashedRanks, want) {
				t.Fatalf("crashed ranks = %v, want %v", res.CrashedRanks, want)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultProfile()
	for seed := int64(0); seed < 8; seed++ {
		a, b := Generate(seed, p), Generate(seed, p)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ:\n%#v\n%#v", seed, a, b)
		}
	}
	if reflect.DeepEqual(Generate(1, p), Generate(2, p)) {
		t.Fatal("distinct seeds produced identical schedules")
	}
}

// TestGeneratedChainsStayInsideArmingWindow compiles seeds 1–500 of both
// profiles and checks every fault chained into the first recovery against
// that recovery's boundary: the earliest plan crash or capture-chained crash.
// A chained fault past it is rejected by the engine, which fails the seed.
func TestGeneratedChainsStayInsideArmingWindow(t *testing.T) {
	for name, p := range map[string]Profile{"default": DefaultProfile(), "net": NetProfile()} {
		for seed := int64(1); seed <= 500; seed++ {
			sc := Generate(seed, p)
			if err := sc.normalize(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			c, err := compile(&sc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			arming := sc.Steps
			for _, f := range c.faults {
				arming = min(arming, f.Iteration)
			}
			for _, ev := range sc.Events {
				if ac, ok := ev.(afterCapture); ok {
					arming = min(arming, ac.Wave*sc.Interval)
				}
			}
			for _, f := range c.armed {
				if f.Iteration > arming {
					t.Fatalf("%s seed %d: chained fault %+v lands past its arming boundary %d:\n%s", name, seed, f, arming, FormatScenario(sc))
				}
			}
		}
	}
}

func TestGeneratedSeedsPassInvariants(t *testing.T) {
	p := DefaultProfile()
	for seed := int64(0); seed < 4; seed++ {
		res := Check(Generate(seed, p))
		if !res.Passed {
			t.Fatalf("generated seed %d violated invariants: %v (run error: %q)", seed, res.Violations, res.RunError)
		}
	}
}

// TestGenerateNetProfileDeterministicAndCovering pins down the widened
// generator: same seed, same schedule (network events and chained faults
// included), and across a modest seed range every new event class and every
// storage operation is actually drawn — the profile cannot silently stop
// exercising a fault class.
func TestGenerateNetProfileDeterministicAndCovering(t *testing.T) {
	p := NetProfile()
	covered := make(map[string]bool)
	for seed := int64(0); seed < 64; seed++ {
		a, b := Generate(seed, p), Generate(seed, p)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ:\n%#v\n%#v", seed, a, b)
		}
		if a.NetSeed != seed {
			t.Fatalf("seed %d: NetSeed = %d, want the generator seed", seed, a.NetSeed)
		}
		for _, ev := range a.Events {
			switch e := ev.(type) {
			case netDelay:
				covered["delay"] = true
			case netReorder:
				covered["reorder"] = true
			case netCrossReorder:
				covered["cross-reorder"] = true
			case netPartition:
				covered["partition"] = true
			case afterRecovery:
				covered["after-recovery"] = true
			case afterCapture:
				covered["after-capture"] = true
			case storageFault:
				covered["storage-"+string(e.Rule.Op)] = true
			}
		}
	}
	for _, want := range []string{
		"delay", "reorder", "cross-reorder", "partition",
		"after-recovery", "after-capture",
		"storage-stage", "storage-commit", "storage-load",
	} {
		if !covered[want] {
			t.Errorf("no seed in 0..63 drew a %s event", want)
		}
	}
}

// TestGenerateDefaultScheduleUnchangedByNetKnobs guards the reproducibility
// of historical seeds: the widened generator must draw its new events after
// the historical draws, so a DefaultProfile schedule keeps its exact event
// prefix.
func TestGenerateDefaultScheduleUnchangedByNetKnobs(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		def := Generate(seed, DefaultProfile())
		net := Generate(seed, NetProfile())
		if len(net.Events) < len(def.Events) {
			t.Fatalf("seed %d: net profile generated fewer events (%d) than default (%d)", seed, len(net.Events), len(def.Events))
		}
		prefix := net.Events[:len(def.Events)]
		for i, ev := range def.Events {
			got := prefix[i]
			// The storage stall rule may move to another op under the net
			// profile's op mix; everything else must match exactly.
			if _, isStorage := ev.(storageFault); isStorage {
				if _, ok := got.(storageFault); !ok {
					t.Fatalf("seed %d: event %d: default drew a storage fault, net profile drew %T", seed, i, got)
				}
				continue
			}
			if !reflect.DeepEqual(ev, got) {
				t.Fatalf("seed %d: event %d differs: default %#v, net %#v", seed, i, ev, got)
			}
		}
	}
}

func TestGeneratedNetSeedsPassInvariants(t *testing.T) {
	p := NetProfile()
	for seed := int64(0); seed < 4; seed++ {
		res := Check(Generate(seed, p))
		if !res.Passed {
			t.Fatalf("generated net seed %d violated invariants: %v (run error: %q)", seed, res.Violations, res.RunError)
		}
	}
}

// TestGeneratedNetSeed80 is a capture-chained crash under network delay and
// reorder on full-log: AfterCapture(3, 3)'s hook fires inside rank 3's wave
// exit barrier while another rank has already checked that boundary and
// stepped on. Placing the fault there stranded that rank mid-step on a
// neighbour parked at the rendezvous; the engine now moves the fault to the
// first boundary no rank has checked.
func TestGeneratedNetSeed80(t *testing.T) {
	if res := Check(Generate(80, NetProfile())); !res.Passed {
		t.Fatalf("generated net seed 80 violated invariants: %v (run error: %q)", res.Violations, res.RunError)
	}
}
