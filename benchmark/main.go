// Command benchmark is the repository's one reproducible benchmark: five
// engine workloads, nine end-to-end metrics measured with tracing off, and
// a traced run that attributes cost to layers. BENCHMARK.json at the root
// names the workloads, the metrics and their regression bounds; README.md
// in this directory explains them.
//
// The driver's form is
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which measures one workload in a child process and prints one JSON object
// as the last line of standard output. --workload all runs the five in turn
// and prints a table; --selfcheck runs the untraced set twice and compares
// the two against the bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	repeats    int
	out        string
	selfcheck  bool
	child      bool
	cpuprofile string
	memprofile string
	exectrace  string
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "places halo_recovery's faults; the other four workloads are seed-independent by construction")
	fs.Float64Var(&o.seconds, "seconds", 20, "measuring window of one workload")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.IntVar(&o.repeats, "repeats", 0, "fixed number of timed runs (overrides -seconds)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for result files and trace files")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced set twice and compare the medians against the bounds of BENCHMARK.json")
	fs.BoolVar(&o.child, "child", false, "internal: measure in this process")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the named workload's traced run")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile after the named workload's traced run")
	fs.StringVar(&o.exectrace, "exectrace", "", "write a runtime execution trace of the named workload's traced run")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if o.workload != "all" {
		if _, ok := findSpec(o.workload); !ok {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	if (o.cpuprofile != "" || o.memprofile != "" || o.exectrace != "") && (o.workload == "all" || o.trace != 1) {
		return nil, fmt.Errorf("profiles apply to one named workload's traced run: give -workload <name> -trace 1")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if o.child {
		err = runChild(o)
	} else {
		err = runParent(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// tailWriter keeps the first and the last lines written to it and passes
// everything on: a Go runtime abort names its cause first and then dumps
// every goroutine, so the end alone would be one arbitrary stack.
type tailWriter struct {
	mu    sync.Mutex
	next  io.Writer
	part  string
	head  []string
	lines []string
}

const (
	headLines = 6
	tailLines = 40
)

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.part += string(p)
	for {
		line, rest, ok := strings.Cut(t.part, "\n")
		if !ok {
			break
		}
		t.part = rest
		if len(t.head) < headLines {
			t.head = append(t.head, line)
			continue
		}
		t.lines = append(t.lines, line)
		if len(t.lines) > tailLines {
			t.lines = t.lines[1:]
		}
	}
	return t.next.Write(p)
}

func (t *tailWriter) tail() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append(append([]string(nil), t.head...), t.lines...)
	if t.part != "" {
		out = append(out, t.part)
	}
	return out
}

// childTimeout is the hard limit of one workload's child process. Besides
// the measuring window a child runs the native twin, a warm-up and a last run
// that starts inside the window; the traced child adds the ladder and the
// run through runner.Run. Four windows and a minute cover all of it with a
// slow host's margin and stay under the driver's 180 s at its 20 s window.
func childTimeout(seconds float64) time.Duration {
	return time.Minute + time.Duration(4*seconds*float64(time.Second))
}

// measure runs one workload in a child process under a hard timeout. A
// child that crashes, deadlocks or hangs becomes failed runs with the end of
// its standard error attached; the harness itself always returns a detail.
func measure(o *options, s *spec) (*detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", s.name,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace),
		"-repeats", fmt.Sprint(o.repeats), "-out", o.out}
	for flagName, v := range map[string]string{"-cpuprofile": o.cpuprofile, "-memprofile": o.memprofile, "-exectrace": o.exectrace} {
		if v != "" {
			args = append(args, flagName, v)
		}
	}
	timeout := childTimeout(o.seconds)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.WaitDelay = 5 * time.Second
	stderr := &tailWriter{next: os.Stderr}
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var started, returned int
	var result *detail
	lines := bufio.NewScanner(stdout)
	lines.Buffer(make([]byte, 1<<20), 64<<20)
	for lines.Scan() {
		var ev event
		if json.Unmarshal(lines.Bytes(), &ev) != nil {
			continue
		}
		switch ev.Ev {
		case "start":
			started++
		case "done":
			returned++
		case "result":
			result = ev.Result
		}
	}
	waitErr := cmd.Wait()
	if result != nil && waitErr == nil {
		return result, nil
	}

	d := newDetail(o, s)
	d.Attempted = max(started, 1)
	d.Failed = d.Attempted - returned
	if d.Failed == 0 {
		d.Failed = 1 // the child died between runs: the invocation still failed
	}
	reason := fmt.Sprint(waitErr)
	if ctx.Err() != nil {
		reason = fmt.Sprintf("timed out after %v", timeout)
	}
	d.Failures = []string{fmt.Sprintf("child process of %s: %s", s.name, reason)}
	d.StderrTail = stderr.tail()
	return d, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func runParent(o *options) error {
	if o.selfcheck {
		return selfcheck(o)
	}
	if s, ok := findSpec(o.workload); ok {
		d, err := measure(o, s)
		if err != nil {
			return err
		}
		path := filepath.Join(o.out, fmt.Sprintf("%s.trace%d.seed%d.json", d.Workload, o.trace, o.seed))
		if err := writeJSON(path, d); err != nil {
			return err
		}
		report(os.Stderr, d)
		line, err := json.Marshal(d.contract())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return failedRuns([]*detail{d})
	}
	set, err := measureSet(o)
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("all.trace%d.seed%d.json", o.trace, o.seed))
	if err := writeJSON(path, set); err != nil {
		return err
	}
	for _, d := range set {
		report(os.Stdout, d)
	}
	fmt.Println("results:", path)
	return failedRuns(set)
}

// measureSet runs every workload, one child process each.
func measureSet(o *options) ([]*detail, error) {
	var set []*detail
	for i := range specs {
		d, err := measure(o, &specs[i])
		if err != nil {
			return nil, err
		}
		set = append(set, d)
	}
	return set, nil
}

func failedRuns(set []*detail) error {
	failed := 0
	for _, d := range set {
		failed += d.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

// report prints one workload's metrics by name, with unit.
func report(w io.Writer, d *detail) {
	fmt.Fprintf(w, "\n%s  seed=%d traced=%v  attempted=%d failed=%d  commit=%s gomaxprocs=%d/%d %s\n",
		d.Workload, d.Seed, d.Traced, d.Attempted, d.Failed, d.Stamp.Commit, d.Stamp.GoMaxProcs, d.Stamp.NProc, d.Stamp.GoVersion)
	for _, def := range endToEnd {
		if st, ok := d.EndToEnd[def.name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s (n=%d median=%.6g min=%.6g max=%.6g)\n", def.name, st.Value, st.Unit, st.N, st.Median, st.Min, st.Max)
		}
	}
	if d.PerLayer != nil {
		for _, def := range perLayer {
			fmt.Fprintf(w, "  %-36s %14.6g %-6s %s\n", def.name, d.PerLayer[def.name], def.unit, def.moves)
		}
	}
	for _, n := range d.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, f := range d.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	for _, l := range d.StderrTail {
		fmt.Fprintln(w, "  stderr|", l)
	}
	if d.TraceFile != "" {
		fmt.Fprintln(w, "  trace:", d.TraceFile)
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-check needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSpread is the distance between the quartiles of one invocation's
// samples as a share of their median: how far single runs scatter.
func runSpread(st stat) float64 {
	if st.N < 4 || st.Median == 0 {
		return 0
	}
	return (stats.Percentile(st.Samples, 75) - stats.Percentile(st.Samples, 25)) / st.Median
}

// selfcheck runs the untraced set twice back to back and compares, per
// workload and end-to-end metric, the two reported values against the
// metric's bound. The comparison is two-sided: the same code was measured
// twice, so a second set that is faster by more than the bound disagrees as
// much as a slower one. A disagreement where single runs scatter by more
// than the bound is marked unresolved: the benchmark cannot tell at that
// bound, which is a finding about the benchmark, not about the code.
func selfcheck(o *options) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck needs BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	o.trace = 0
	var sets [2][]*detail
	for i := range sets {
		if sets[i], err = measureSet(o); err != nil {
			return err
		}
		path := filepath.Join(o.out, fmt.Sprintf("selfcheck_%c.json", 'a'+i))
		if err := writeJSON(path, sets[i]); err != nil {
			return err
		}
		fmt.Println("results:", path)
	}
	var over []string
	fmt.Printf("\n%-16s %-26s %12s %12s %8s %8s %7s\n", "workload", "metric", "first", "second", "apart", "scatter", "bound")
	for w := range sets[0] {
		a, b := sets[0][w], sets[1][w]
		for _, m := range bf.EndToEnd {
			x, y := a.EndToEnd[m.Name], b.EndToEnd[m.Name]
			apart := math.Abs(y.Value-x.Value) / min(x.Value, y.Value)
			scatter := max(runSpread(x), runSpread(y))
			mark := ""
			if apart > m.Bound {
				mark = "  DIFFER"
				if scatter > m.Bound {
					mark = "  UNRESOLVED"
				}
				over = append(over, a.Workload+"/"+m.Name)
			}
			fmt.Printf("%-16s %-26s %12.6g %12.6g %7.2f%% %7.2f%% %6.1f%%%s\n",
				a.Workload, m.Name, x.Value, y.Value, 100*apart, 100*scatter, 100*m.Bound, mark)
		}
	}
	if err := failedRuns(append(sets[0], sets[1]...)); err != nil {
		return err
	}
	if len(over) > 0 {
		sort.Strings(over)
		return fmt.Errorf("the two sets are further apart than the bound: %s", strings.Join(over, ", "))
	}
	return nil
}
