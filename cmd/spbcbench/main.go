// Command spbcbench races the five fault-tolerance protocols (native,
// coordinated checkpointing, full message logging, static SPBC and adaptive
// SPBC) across a declarative benchmark matrix and writes the result as
// BENCH_<name>.json — the paper's comparison figures in machine-readable
// form, extended with the static-vs-adaptive clustering dimension.
//
// Example (the default ≥40-cell matrix):
//
//	spbcbench -name sweep -out .
//
// A smaller CI-sized sweep with the adaptive regression gate:
//
//	spbcbench -name ci -ranks 4,8 -steps 8 -intervals 3 -fault-plans 0,1 -adaptive-gate
//
// Matrix axes are comma-separated lists; kernels use name:size[:arg] — the
// third field is the ring's reduce period or the phase kernel's phase length
// (e.g. ring:16:3, solver:24 or phase:32:2) — and fault plans are fault
// counts per cell (0 = failure-free), with fault locations drawn
// deterministically from -seed and the cell's axes.
//
// -adaptive-gate fails the sweep when adaptive SPBC regresses against static
// SPBC: on a phase-shifting kernel the adaptive cells must log strictly
// fewer bytes than their static twins, and on stable kernels they must keep
// the seed partition (zero epoch switches, identical logged volume).
//
// -profile chaos runs the fault-injection suite: every scenario of the chaos
// catalog plus -chaos-seeds generated scenarios (seeded -seed, -seed+1, ...)
// is checked against its failure-free twin — bit-identical replay, rollback
// scope bounds, no reads of undurable checkpoints — and the verdicts are
// written as CHAOS_<name>.json, exiting non-zero when any scenario violates
// an invariant. A failed generated row reproduces from its seed alone:
//
//	spbcbench -profile chaos -name ci -chaos-seeds 16 -out .
//
// -profile scale measures how the simulator's host cost grows with the world
// size: each cell runs a ring workload on a full engine at one rank count
// (default sweep 64→65536; SPBC block clusters, full-log and the adaptive
// controller seeded with the same block partition) and records
// host-ns per simulated send and peak heap, gated so ns/send stays within
// -ns-send-factor of the smallest cell and heap grows sublinearly in ranks
// (-mem-factor). Results are written as BENCH_scale_<name>.json, exiting
// non-zero on any gate violation:
//
//	spbcbench -profile scale -name baseline -out .
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/runner"
)

func main() {
	var (
		name       = flag.String("name", "sweep", "sweep name; output file is BENCH_<name>.json")
		out        = flag.String("out", ".", "output directory")
		profile    = flag.String("profile", "sweep", "what to measure: 'sweep' (virtual-time protocol matrix), 'chaos' (fault-injection suite with invariant checking) or 'scale' (world-size growth of host ns/send and peak heap)")
		chaosSeeds = flag.Int("chaos-seeds", 16, "number of generated scenarios for -profile chaos (seeds -seed .. -seed+n-1)")
		chaosNet   = flag.Bool("chaos-net", false, "generate chaos scenarios with the network profile: link delay/jitter, FIFO reorder, cross-channel reorder, partitions, chained crashes and all storage ops")
		chaosShr   = flag.Bool("chaos-shrink", false, "minimize every failing chaos row with the scenario shrinker and write CHAOS_<name>_shrunk.txt")
		scaleRanks = flag.String("scale-ranks", "", "comma-separated rank counts for -profile scale (default: 64,256,1024,4096,16384,65536)")
		rpc        = flag.Int("ranks-per-cluster", 0, "SPBC block-cluster size for -profile scale (0 = default 16)")
		nsSendFac  = flag.Float64("ns-send-factor", 0, "ns/send growth gate for -profile scale: largest cell within this factor of the smallest (0 = default 4.0, negative disables)")
		memFactor  = flag.Float64("mem-factor", 0, "peak-heap growth gate for -profile scale: heap ratio <= factor x rank ratio (0 = default 1.25, negative disables)")
		adaptGate  = flag.Bool("adaptive-gate", false, "fail the sweep when adaptive SPBC regresses against static SPBC (requires both in -protocols)")
		protocols  = flag.String("protocols", "", "comma-separated protocols (default: all five)")
		kernels    = flag.String("kernels", "ring:16:3,solver:24,phase:32:2", "comma-separated kernels, name:size[:arg] (arg: ring reduce period / phase length)")
		ranks      = flag.String("ranks", "8", "comma-separated rank counts")
		rpn        = flag.Int("ranks-per-node", 2, "ranks hosted per node")
		clusters   = flag.String("clusters", "2", "comma-separated SPBC cluster counts")
		intervals  = flag.String("intervals", "2,4", "comma-separated checkpoint intervals (iterations)")
		faultPlans = flag.String("fault-plans", "0,1", "comma-separated fault counts per cell")
		steps      = flag.Int("steps", 10, "iterations per run")
		seed       = flag.Int64("seed", 1, "sweep seed (drives the per-cell fault draws)")
		workers    = flag.Int("workers", 0, "concurrent cell executions (default GOMAXPROCS)")
		quiet      = flag.Bool("quiet", false, "suppress the summary table")
	)
	flag.Parse()

	switch *profile {
	case "chaos", "scale":
		if *adaptGate {
			// Refuse rather than silently skip: the caller would believe the
			// gate ran when only the chaos/scale path executed.
			fatal(fmt.Errorf("-adaptive-gate only applies to -profile sweep, not %q", *profile))
		}
		if *profile == "chaos" {
			runChaosProfile(*name, *out, *seed, *chaosSeeds, *chaosNet, *chaosShr, *quiet)
		} else {
			runScaleProfile(*name, *out, *protocols, *scaleRanks, *rpc, *nsSendFac, *memFactor, *quiet)
		}
		return
	case "sweep":
	default:
		fatal(fmt.Errorf("unknown profile %q (have sweep, chaos, scale)", *profile))
	}

	m := bench.Matrix{
		Name:         *name,
		RanksPerNode: *rpn,
		Steps:        *steps,
		Seed:         *seed,
		Workers:      *workers,
	}
	var err error
	if m.Protocols, err = parseProtocols(*protocols); err != nil {
		fatal(err)
	}
	if m.Kernels, err = parseKernels(*kernels); err != nil {
		fatal(err)
	}
	if m.Ranks, err = parseInts("ranks", *ranks); err != nil {
		fatal(err)
	}
	if m.Clusters, err = parseInts("clusters", *clusters); err != nil {
		fatal(err)
	}
	if m.Intervals, err = parseInts("intervals", *intervals); err != nil {
		fatal(err)
	}
	if m.FaultPlans, err = parseFaultPlans(*faultPlans); err != nil {
		fatal(err)
	}

	res, err := bench.Run(m)
	if err != nil {
		fatal(err)
	}
	path, err := res.WriteFile(*out)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Println(res.Table())
	}
	failed := res.Errs()
	fmt.Printf("wrote %s (%d cells, %d failed)\n", path, len(res.Cells), len(failed))
	if len(failed) > 0 {
		for key, msg := range failed {
			fmt.Fprintf(os.Stderr, "cell %s: %s\n", key, msg)
		}
		os.Exit(1)
	}
	if *adaptGate {
		findings := bench.CompareAdaptiveSweep(res)
		if len(findings) == 0 {
			fmt.Println("adaptive gate: adaptive SPBC holds the line against static SPBC")
			return
		}
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, "adaptive regression:", f)
		}
		fmt.Fprintf(os.Stderr, "adaptive gate: %d regressions\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spbcbench:", err)
	os.Exit(2)
}

// runScaleProfile executes the world-size growth profile and exits non-zero
// when any cell grew past the ns/send or peak-heap gate.
func runScaleProfile(name, out, protocols, ranks string, rpc int, nsSendFactor, memFactor float64, quiet bool) {
	m := bench.ScaleMatrix{
		Name:            name,
		RanksPerCluster: rpc,
		NsPerSendFactor: nsSendFactor,
		MemFactor:       memFactor,
	}
	var err error
	if m.Protocols, err = parseProtocols(protocols); err != nil {
		fatal(err)
	}
	if ranks != "" {
		if m.Ranks, err = parseInts("scale-ranks", ranks); err != nil {
			fatal(err)
		}
	}
	res, err := bench.RunScale(m)
	if err != nil {
		fatal(err)
	}
	path, err := res.WriteFile(out)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		fmt.Println(res.Table())
	}
	violations := res.Violations()
	fmt.Printf("wrote %s (%d cells, %d gate violations)\n", path, len(res.Cells), len(violations))
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "gate violation:", v)
		}
		os.Exit(1)
	}
}

// runChaosProfile checks the chaos scenario catalog plus n generated
// scenarios and exits non-zero when any row violates an invariant. Every
// failing generated row is reported with its generator seed and the exact
// command that replays just that row; with -chaos-shrink the failing rows are
// also minimized and written as CHAOS_<name>_shrunk.txt.
func runChaosProfile(name, out string, seed int64, n int, net, shrink, quiet bool) {
	if n < 0 {
		fatal(fmt.Errorf("-chaos-seeds must be non-negative, got %d", n))
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	res, err := bench.RunChaos(name, seeds, bench.ChaosOpts{Net: net, Shrink: shrink})
	if err != nil {
		fatal(err)
	}
	path, err := res.WriteFile(out)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		fmt.Println(res.Table())
	}
	fmt.Printf("wrote %s (%d suite + %d generated scenarios, %d failed)\n",
		path, len(res.Suite), len(res.Generated), res.Failures)
	if spath, err := res.WriteShrunkFile(out); err != nil {
		fatal(err)
	} else if spath != "" {
		fmt.Printf("wrote %s (%d minimized scenarios)\n", spath, len(res.Shrunk))
	}
	if res.Failures > 0 {
		for i := range res.Suite {
			c := &res.Suite[i]
			if c.Passed {
				continue
			}
			reportViolations(c.Scenario, c.Violations)
		}
		for i := range res.Generated {
			c := &res.Generated[i]
			if c.Passed {
				continue
			}
			label := fmt.Sprintf("seed:%d/%s", c.Seed, c.Scenario)
			reportViolations(label, c.Violations)
			fmt.Fprintf(os.Stderr, "scenario %s: generator seed %d; reproduce: %s\n", label, c.Seed, c.Repro)
		}
		os.Exit(1)
	}
}

// reportViolations prints one failing chaos row's violations to stderr.
func reportViolations(label string, violations []string) {
	if len(violations) == 0 {
		fmt.Fprintf(os.Stderr, "scenario %s: failed\n", label)
		return
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "scenario %s: %s\n", label, v)
	}
}

// parseProtocols parses a comma-separated protocol list; empty means all.
func parseProtocols(s string) ([]runner.Protocol, error) {
	if s == "" {
		return nil, nil
	}
	var out []runner.Protocol
	for _, f := range strings.Split(s, ",") {
		p, err := runner.ParseProtocol(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// parseKernels parses name:size[:arg] specs; the third field is the ring's
// reduce period or the phase kernel's phase length.
func parseKernels(s string) ([]bench.KernelSpec, error) {
	var out []bench.KernelSpec
	for _, f := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(f), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("kernel %q: want name:size[:arg]", f)
		}
		k := bench.KernelSpec{Name: parts[0]}
		var err error
		if k.Size, err = strconv.Atoi(parts[1]); err != nil {
			return nil, fmt.Errorf("kernel %q: bad size: %w", f, err)
		}
		if len(parts) == 3 {
			arg, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("kernel %q: bad kernel argument: %w", f, err)
			}
			if k.Name == "phase" {
				k.PhaseLen = arg
			} else {
				k.ReduceEvery = arg
			}
		}
		out = append(out, k)
	}
	return out, nil
}

// parseInts parses a comma-separated int list.
func parseInts(what, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("%s %q: %w", what, f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFaultPlans parses a comma-separated list of fault counts.
func parseFaultPlans(s string) ([]bench.FaultSpec, error) {
	var out []bench.FaultSpec
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("fault plan %q: %w", f, err)
		}
		spec := bench.FaultSpec{Name: fmt.Sprintf("f%d", n), Count: n}
		if n == 0 {
			spec.Name = "none"
		}
		out = append(out, spec)
	}
	return out, nil
}
