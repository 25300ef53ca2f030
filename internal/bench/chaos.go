package bench

// The chaos profile runs the scenario catalog and a batch of seed-generated
// random scenarios through the chaos invariant checker and writes the
// verdicts as CHAOS_<name>.json — the machine-readable fault-injection
// counterpart of the BENCH_*.json sweeps. Every scenario is checked against
// its failure-free twin (bit-identical replay, rollback-scope bounds, no
// undurable reads), so a single failed row means a protocol bug, not a flaky
// run: the whole report is deterministic, and any generated row can be
// reproduced from its seed alone.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/chaos"
	"repro/internal/stats"
)

// ChaosSeedResult is the verdict on one generated scenario, tagged with the
// seed that reproduces it and the exact command that replays just this row.
type ChaosSeedResult struct {
	Seed int64 `json:"seed"`
	// Repro is the one-line spbcbench invocation that regenerates and
	// re-checks exactly this scenario.
	Repro string `json:"repro,omitempty"`
	chaos.Result
}

// ChaosShrunk is one minimized failing scenario: the smallest event list the
// shrinker found that still violates an invariant, as a compilable literal.
type ChaosShrunk struct {
	// Label names the failing row (scenario name, or seed:<n>/<scenario>).
	Label string `json:"label"`
	// Seed is the generator seed for generated rows (0 for catalog rows).
	Seed int64 `json:"seed,omitempty"`
	// Events is the minimized scenario's event count.
	Events int `json:"events"`
	// Runs is how many checker runs the shrink spent.
	Runs int `json:"runs"`
	// Literal is the compilable chaos.Scenario literal of the minimum.
	Literal string `json:"literal"`
}

// ChaosResult is the machine-readable output of one chaos run, the content
// of CHAOS_<name>.json.
type ChaosResult struct {
	Name string `json:"name"`
	// Suite holds the catalog scenarios' verdicts in catalog order.
	Suite []chaos.Result `json:"suite"`
	// Generated holds the seed-generated scenarios' verdicts in seed order.
	Generated []ChaosSeedResult `json:"generated,omitempty"`
	// Shrunk holds minimized failing scenarios (with ChaosOpts.Shrink).
	Shrunk []ChaosShrunk `json:"shrunk,omitempty"`
	// Failures counts the rows that violated an invariant.
	Failures int `json:"failures"`
}

// ChaosOpts tunes a chaos run.
type ChaosOpts struct {
	// Net generates scenarios with chaos.NetProfile — network fabric events
	// (delay, reorder, partition), chained crashes and all storage ops — in
	// place of chaos.DefaultProfile.
	Net bool
	// Shrink runs chaos.Shrink on every failing row and attaches the
	// minimized scenarios to the result.
	Shrink bool
}

// RunChaos checks the full scenario catalog plus one generated scenario per
// seed. It only errors on harness misuse (an invalid name); scenario
// verdicts, including failed ones, land in the result.
func RunChaos(name string, seeds []int64, opts ChaosOpts) (*ChaosResult, error) {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("bench: invalid chaos run name %q", name)
	}
	res := &ChaosResult{Name: name}
	shrink := func(label string, seed int64, sc chaos.Scenario) {
		if !opts.Shrink {
			return
		}
		shr, err := chaos.Shrink(sc, chaos.Reproduces)
		if err != nil {
			// The row failed but the shrinker could not reproduce it (e.g. a
			// run error outside the predicate's reach); keep the full row.
			return
		}
		res.Shrunk = append(res.Shrunk, ChaosShrunk{
			Label:   label,
			Seed:    seed,
			Events:  len(shr.Scenario.Events),
			Runs:    shr.Runs,
			Literal: shr.Literal,
		})
	}
	for _, sc := range chaos.Catalog() {
		r := *chaos.Check(sc)
		res.Suite = append(res.Suite, r)
		if !r.Passed {
			shrink(r.Scenario, 0, sc)
		}
	}
	profile := chaos.DefaultProfile()
	reproFlags := ""
	if opts.Net {
		profile = chaos.NetProfile()
		reproFlags = " -chaos-net"
	}
	for _, seed := range seeds {
		sc := chaos.Generate(seed, profile)
		r := ChaosSeedResult{
			Seed:   seed,
			Repro:  fmt.Sprintf("go run ./cmd/spbcbench -profile chaos -name repro -seed %d -chaos-seeds 1%s", seed, reproFlags),
			Result: *chaos.Check(sc),
		}
		res.Generated = append(res.Generated, r)
		if !r.Passed {
			shrink(fmt.Sprintf("seed:%d/%s", seed, r.Scenario), seed, sc)
		}
	}
	for i := range res.Suite {
		if !res.Suite[i].Passed {
			res.Failures++
		}
	}
	for i := range res.Generated {
		if !res.Generated[i].Passed {
			res.Failures++
		}
	}
	return res, nil
}

// Failed returns the violation lists of the failed rows, keyed by scenario
// label (generated rows are keyed as seed:<n>/<scenario>).
func (r *ChaosResult) Failed() map[string][]string {
	out := make(map[string][]string)
	for i := range r.Suite {
		if c := &r.Suite[i]; !c.Passed {
			out[c.Scenario] = c.Violations
		}
	}
	for i := range r.Generated {
		if c := &r.Generated[i]; !c.Passed {
			out[fmt.Sprintf("seed:%d/%s", c.Seed, c.Scenario)] = c.Violations
		}
	}
	return out
}

// WriteFile writes CHAOS_<name>.json into dir and returns the path.
func (r *ChaosResult) WriteFile(dir string) (string, error) {
	return writeJSONFile(dir, "CHAOS_", r.Name, r)
}

// WriteShrunkFile writes the minimized failing scenarios as a Go-flavoured
// text artifact (CHAOS_<name>_shrunk.txt) next to the JSON report: each entry
// is the row label, its reproduce seed and a compilable chaos.Scenario
// literal ready to paste into a regression test. Returns "" when there is
// nothing to write.
func (r *ChaosResult) WriteShrunkFile(dir string) (string, error) {
	if len(r.Shrunk) == 0 {
		return "", nil
	}
	if r.Name == "" || strings.ContainsAny(r.Name, "/\\") {
		return "", fmt.Errorf("bench: invalid chaos run name %q", r.Name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Minimized failing chaos scenarios from run %q.\n", r.Name)
	b.WriteString("// Each literal reproduces its violation without the generator seed.\n")
	for _, s := range r.Shrunk {
		fmt.Fprintf(&b, "\n// %s — shrunk to %d events in %d checker runs", s.Label, s.Events, s.Runs)
		if s.Seed != 0 {
			fmt.Fprintf(&b, " (generator seed %d)", s.Seed)
		}
		b.WriteString("\n")
		b.WriteString(s.Literal)
		b.WriteString("\n")
	}
	path := filepath.Join(dir, "CHAOS_"+r.Name+"_shrunk.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", fmt.Errorf("bench: write %s: %w", path, err)
	}
	return path, nil
}

// Table renders the chaos run as an aligned plain-text table, one row per
// scenario.
func (r *ChaosResult) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("CHAOS %s (%d suite, %d generated)", r.Name, len(r.Suite), len(r.Generated)),
		"scenario", "protocol", "verdict", "crashed", "rolled", "recov", "replay", "canceled", "st_inject", "net_inject")
	row := func(label string, c *chaos.Result) {
		verdict := "ok"
		switch {
		case !c.Passed:
			verdict = "FAILED: " + strings.Join(c.Violations, "; ")
		case c.ExpectError:
			verdict = "ok (expected error)"
		}
		t.AddRow(
			label,
			c.Protocol,
			verdict,
			fmt.Sprint(len(c.CrashedRanks)),
			fmt.Sprint(len(c.RolledBackRanks)),
			fmt.Sprint(c.RecoveryEvents),
			fmt.Sprint(c.ReplayedRecords),
			fmt.Sprint(c.CanceledWaves),
			fmt.Sprint(c.StorageInjections),
			fmt.Sprint(c.NetInjections),
		)
	}
	for i := range r.Suite {
		row(r.Suite[i].Scenario, &r.Suite[i])
	}
	for i := range r.Generated {
		c := &r.Generated[i]
		row(fmt.Sprintf("seed:%d", c.Seed), &c.Result)
	}
	return t
}
