package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) *manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return &m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesTables pins BENCHMARK.json to the metric and workload
// tables of the program, and both to the contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) || len(m.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d (limit 8)", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Fatalf("%d end-to-end (limit 16) and %d per-layer (limit 128) metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	seen := map[string]bool{}
	compare := func(kind string, file []manifestMetric, table []metricDef, bounded bool) {
		if len(file) != len(table) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(file), len(table))
		}
		for i, f := range file {
			if f.Name != table[i].name || f.Unit != table[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", kind, i, f.Name, f.Unit, table[i].name, table[i].unit)
			}
			if !nameRE.MatchString(f.Name) {
				t.Errorf("%s: bad metric name %q", kind, f.Name)
			}
			if seen[f.Name] {
				t.Errorf("%s: metric name %q used twice", kind, f.Name)
			}
			seen[f.Name] = true
			if f.Better != "lower" && f.Better != "higher" {
				t.Errorf("%s: better = %q", f.Name, f.Better)
			}
			if bounded != (f.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", f.Name, f.Bound != nil, bounded)
			}
			if f.Bound != nil && (*f.Bound <= 0 || *f.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", f.Name, *f.Bound)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
}

// TestPredictionsNameRealMetrics checks every per-layer metric's prediction:
// each token names an end-to-end metric and a workload (or "all").
func TestPredictionsNameRealMetrics(t *testing.T) {
	metrics := map[string]bool{}
	for _, def := range endToEnd {
		metrics[def.name] = true
	}
	for _, def := range perLayer {
		for _, token := range strings.Fields(def.moves) {
			metric, workload, ok := strings.Cut(token, "@")
			if _, known := findSpec(workload); !ok || !metrics[metric] || !(known || workload == "all") {
				t.Errorf("%s: prediction %q does not name an end-to-end metric and a workload", def.name, token)
			}
		}
	}
}

// toy shrinks a workload to smoke-test size: same kernel, protocol and
// storage stack, a world of at most 64 ranks and a handful of waves.
func (s spec) toy() spec {
	shrink := s.ranks / 64
	if shrink < 1 {
		shrink = 1
	}
	s.ranks /= shrink
	if s.clusters > 1 {
		s.clusters = 4
	}
	if s.perNode > 1 {
		s.perNode = 2
	}
	if s.steps/s.interval > 4 {
		s.steps = 4 * s.interval
	}
	return s
}

// TestWorkloadsAtToySize runs every workload at 64 ranks, one repeat, with
// tracing off and on, and checks that every metric of the tables is emitted
// exactly once, that no run fails, and that the storage decorator is
// transparent on the tiered workload.
func TestWorkloadsAtToySize(t *testing.T) {
	out := t.TempDir()
	for i := range specs {
		toy := specs[i].toy()
		t.Run(toy.name, func(t *testing.T) {
			var details [2]*detail
			for trace := range details {
				o := &options{workload: toy.name, seed: 3, seconds: 1, trace: trace, repeats: 1, out: out}
				d, err := measureWorkload(o, &toy, io.Discard)
				if err != nil {
					t.Fatalf("trace=%d: %v", trace, err)
				}
				if d.Failed != 0 || !d.correct() {
					t.Fatalf("trace=%d: %d of %d runs failed: %v", trace, d.Failed, d.Attempted, d.Failures)
				}
				line := d.contract()
				want := endToEnd
				if trace == 1 {
					want = perLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("trace=%d: %d metrics emitted, want %d", trace, len(line.Metrics), len(want))
				}
				for _, def := range want {
					v, ok := line.Metrics[def.name]
					if !ok {
						t.Errorf("trace=%d: metric %s missing", trace, def.name)
					} else if v.Unit != def.unit {
						t.Errorf("trace=%d: metric %s has unit %q, want %q", trace, def.name, v.Unit, def.unit)
					}
				}
				details[trace] = d
			}
			for _, def := range endToEnd {
				if details[0].EndToEnd[def.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", def.name, details[0].EndToEnd[def.name].Value)
				}
			}
			if _, err := os.Stat(details[1].TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
			if !toy.tiered {
				return
			}
			// The decorated storage must stage what the bare one stages: the
			// committer's delta probe has to see through the decorator.
			pl := details[1].PerLayer
			if pl["checkpoint.delta.images"] <= 0 {
				t.Errorf("traced run staged no delta images: the decorator hides the tier's delta policy")
			}
			// Staged bytes vary by ~5% between identical runs (delta or anchor
			// depends on which wave had published); a hidden delta policy
			// stages full images, half as much again.
			bare, traced := details[0].EndToEnd["ckpt_staged_mib"].Median, pl["checkpoint.stage.mib"]
			if traced < 0.85*bare || traced > 1.15*bare {
				t.Errorf("traced run staged %.3f MiB, the undecorated run %.3f MiB: more than 15%% apart", traced, bare)
			}
		})
	}
}

// TestQuietRuns pins the rule that sets disturbed runs aside: only when at
// least five runs, and a third of all, were left alone by the host.
func TestQuietRuns(t *testing.T) {
	mk := func(shares ...float64) []*runOut {
		runs := make([]*runOut, len(shares))
		for i, s := range shares {
			runs[i] = &runOut{stolenShare: s}
		}
		return runs
	}
	for _, c := range []struct {
		name string
		runs []*runOut
		want int
	}{
		{"all quiet", mk(0, 0, 0.004, 0, 0, 0.01), 6},
		{"a burst costs samples", mk(0, 0.2, 0, 0.12, 0, 0, 0.03, 0), 5},
		{"too few quiet runs", mk(0, 0.2, 0, 0.12, 0, 0.3, 0.03, 0), 8},
		{"busy throughout", mk(0.2, 0.1, 0.3, 0.12, 0.08, 0.3), 6},
	} {
		if got := len(quietRuns(c.runs)); got != c.want {
			t.Errorf("%s: %d runs kept, want %d", c.name, got, c.want)
		}
	}
}
