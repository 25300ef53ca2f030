package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"time"

	"repro/internal/buf"
)

// The child process measures one workload. It reports on standard output,
// one JSON object per line: {"ev":"start"} before every run it starts,
// {"ev":"done"} after every run that returned, and finally {"ev":"result"}
// with the full detail. If the child dies (a Go runtime deadlock abort, a
// panic, an OOM kill, the parent's timeout), the parent still knows how many
// runs were started and how many came back.

type event struct {
	Ev     string  `json:"ev"`
	Result *detail `json:"result,omitempty"`
}

type childRun struct {
	opts   *options
	spec   *spec
	sc     *scenario
	enc    *json.Encoder
	detail *detail
	all    []*runOut // every run that completed, for the simulated statistics
}

func (c *childRun) emit(ev event) { c.enc.Encode(ev) }

// attempt runs the workload once and books it as an operation.
func (c *childRun) attempt(sc *scenario, tr *tracer, keep bool) (*runOut, *built) {
	c.detail.Attempted++
	c.emit(event{Ev: "start"})
	out, b, err := sc.run(tr, keep)
	c.emit(event{Ev: "done"})
	if err != nil {
		c.detail.Failed++
		c.detail.Failures = append(c.detail.Failures, err.Error())
		return nil, nil
	}
	if len(out.failures) > 0 {
		c.detail.Failed++
		for _, f := range out.failures {
			c.detail.Failures = append(c.detail.Failures, c.spec.name+": "+f)
		}
	}
	if sc == c.sc { // the failure-free twin of a fault workload is not a repeat
		c.all = append(c.all, out)
		c.detail.Sim = append(c.detail.Sim, out.sim)
	}
	return out, b
}

func runChild(opts *options) error {
	// One load-generating process, on at most four OS threads.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	s, ok := findSpec(opts.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", opts.workload)
	}
	_, err := measureWorkload(opts, s, os.Stdout)
	return err
}

// measureWorkload measures one workload in this process, reporting events
// on w, and returns the detail it also sent as the final event.
func measureWorkload(opts *options, s *spec, w io.Writer) (*detail, error) {
	c := &childRun{opts: opts, spec: s, enc: json.NewEncoder(w), detail: newDetail(opts, s)}
	var err error
	if c.sc, err = newScenario(s, opts.seed); err != nil {
		return nil, err
	}
	// Warm-up: fills the buf pools and the runtime's allocator classes.
	c.attempt(c.sc, nil, false)
	if opts.trace == 1 {
		err = c.measureTraced()
	} else {
		c.measureUntraced()
	}
	if err != nil {
		return nil, err
	}
	c.emit(event{Ev: "result", Result: c.detail})
	return c.detail, nil
}

// quietShare is the share of a run's CPU time the hypervisor may withhold
// from the guest (steal) before the run counts as disturbed. Measured on
// shift_ckpt: 0.78 s at no steal, 1.0 s at 3 %, 1.3 s at 10 %, 1.9 s at 29 %.
const quietShare = 0.01

// quietOf are the runs the host left alone.
func quietOf(runs []*runOut) []*runOut {
	var quiet []*runOut
	for _, r := range runs {
		if r.stolenShare <= quietShare {
			quiet = append(quiet, r)
		}
	}
	return quiet
}

// quietRuns keeps the runs the host left alone, provided they are at least
// five and a third of all: a burst of steal then costs samples, not accuracy.
// Where the host was busy throughout, every run counts.
func quietRuns(runs []*runOut) []*runOut {
	quiet := quietOf(runs)
	if len(quiet) < 5 || 3*len(quiet) < len(runs) {
		return runs
	}
	return quiet
}

// budget decides whether another run fits the measuring window: with
// -repeats the count is fixed, otherwise runs continue until the next one
// would end after the window closes (but never fewer than least).
type budget struct {
	start   time.Time
	window  time.Duration
	repeats int
	least   int
	done    int
}

func newBudget(o *options, share float64, least int) *budget {
	return &budget{start: time.Now(), window: time.Duration(o.seconds * share * float64(time.Second)), repeats: o.repeats, least: least}
}

func (b *budget) more() bool {
	if b.repeats > 0 {
		return b.done < b.repeats
	}
	if b.done < b.least {
		return true
	}
	elapsed := time.Since(b.start)
	return elapsed+elapsed/time.Duration(b.done) <= b.window
}

// measureUntraced is the end-to-end measurement: timed runs with tracing
// off, then extra set-up samples, so setup_s rests on many set-ups.
func (c *childRun) measureUntraced() {
	var timed []*runOut
	bud := newBudget(c.opts, 1, 5)
	for bud.more() {
		if out, _ := c.attempt(c.sc, nil, false); out != nil {
			timed = append(timed, out)
		}
		bud.done++
	}
	c.detail.StolenShare = column(timed, func(r *runOut) float64 { return r.stolenShare })
	runs := quietRuns(timed)
	if disturbed := len(timed) - len(quietOf(timed)); disturbed > 0 {
		verdict := "set aside"
		if len(runs) == len(timed) {
			verdict = "too many to set aside: the host-time metrics are disturbed"
		}
		c.detail.Notes = append(c.detail.Notes, fmt.Sprintf("the hypervisor withheld more than %.0f%% of the CPU time of %d of the %d timed runs, %s",
			100*quietShare, disturbed, len(timed), verdict))
	}
	// Cheap set-ups (a millisecond on the unpartitioned workloads) need many
	// samples to be steady; expensive ones are steady with few.
	setups := setupsOf(runs)
	for extra := time.Now(); len(setups) < 60 && time.Since(extra) < 1500*time.Millisecond; {
		runtime.GC()
		start := time.Now()
		if _, err := build(c.spec, c.sc.faults, nil); err != nil {
			c.detail.Failures = append(c.detail.Failures, "extra set-up: "+err.Error())
			break
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	col := func(f func(*runOut) float64) []float64 { return column(runs, f) }
	tw := c.sc.twin
	e := map[string][]float64{
		"setup_s":               setups,
		"wall_s":                wallsOf(runs),
		"peak_heap_mib":         col(func(r *runOut) float64 { return r.peakHeapMiB }),
		"alloc_mib":             col(func(r *runOut) float64 { return r.allocMiB }),
		"virtual_overhead_frac": col(func(r *runOut) float64 { return r.sim.Makespan/tw.makespan - 1 }),
		"log_amplification":     col(func(r *runOut) float64 { return 1 + float64(r.sim.LoggedBytes)/float64(tw.bytes) }),
		"ckpt_staged_mib":       col(func(r *runOut) float64 { return float64(r.sim.StagedBytes) / mib }),
		"restart_load_s":        col(func(r *runOut) float64 { return r.restartLoadS }),
		"rollback_ranks_per_fault": col(func(r *runOut) float64 {
			if r.metrics.RecoveryEvents > 0 {
				return float64(r.metrics.RestoredCheckpoints) / float64(r.metrics.RecoveryEvents)
			}
			return expectedScope(r.clusterOf)
		}),
	}
	c.detail.EndToEnd = make(map[string]stat, len(endToEnd))
	for _, def := range endToEnd {
		c.detail.EndToEnd[def.name] = summarize(def.unit, e[def.name])
	}
	st := c.detail.EndToEnd["setup_s"]
	st.Value = fastThirdMean(setups)
	c.detail.EndToEnd["setup_s"] = st
	if n := simSpread(c.all); n > 0 {
		c.detail.Notes = append(c.detail.Notes, fmt.Sprintf("%d simulated statistics differed between repeats (see sim_stats)", n))
	}
}

// measureTraced is the per-layer measurement: untraced and traced runs
// alternate for half the window (their wall-time ratio is the tracing
// overhead), the last traced run feeds the per-layer metrics, and the
// microbenchmarks, the ladder and the runner run use the rest.
func (c *childRun) measureTraced() error {
	o := c.opts
	in := &layerInputs{sc: c.sc}
	bud := newBudget(o, 0.5, 1)
	for bud.more() {
		if out, _ := c.attempt(c.sc, nil, false); out != nil {
			in.untraced = append(in.untraced, out)
		}
		stopProfiles, err := startProfiles(o)
		if err != nil {
			return err
		}
		in.tr = newTracer(c.spec.ranks)
		pool := buf.PoolStats()
		in.out, in.b = c.attempt(c.sc, in.tr, true)
		after := buf.PoolStats()
		in.poolGets, in.poolMiss = after.Gets-pool.Gets, after.Misses-pool.Misses
		if err := stopProfiles(); err != nil {
			return err
		}
		if in.out != nil {
			in.traced = append(in.traced, in.out)
		}
		bud.done++
	}
	if in.out == nil || len(in.untraced) == 0 {
		return nil // the failures are booked; there is nothing to attribute
	}
	in.spans = in.tr.finish()

	if c.spec.faults {
		free := *c.sc
		free.faults = nil
		if out, _ := c.attempt(&free, nil, false); out != nil {
			in.freeMakespan = out.sim.Makespan
		}
	}
	m, notes, err := layerMetrics(in)
	if err != nil {
		c.detail.Failed++
		c.detail.Failures = append(c.detail.Failures, err.Error())
		return nil
	}
	c.detail.PerLayer = m
	c.detail.Notes = append(c.detail.Notes, notes...)
	c.detail.HotSpans = make(map[string]hotSummary, numHot)
	for k := hotKind(0); k < numHot; k++ {
		a := in.tr.hotTotal(k)
		c.detail.HotSpans[hotNames[k]] = hotSummary{
			Count: a.count, SumS: float64(a.sumNs) / 1e9, MaxUs: float64(a.maxNs) / 1e3,
			P50UsLe: float64(a.quantileNs(0.5)) / 1e3, P99UsLe: float64(a.quantileNs(0.99)) / 1e3,
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	c.detail.TraceFile = filepath.Join(o.out, c.spec.name+".trace.json")
	return writeChromeTrace(c.detail.TraceFile, in.spans, in.tr)
}

// startProfiles turns on the standard Go profiles the flags ask for, around
// one traced run; the returned function stops and writes them.
func startProfiles(o *options) (func() error, error) {
	var stops []func() error
	stop := func() error {
		var first error
		for _, s := range stops {
			if err := s(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() error { pprof.StopCPUProfile(); return f.Close() })
	}
	if o.exectrace != "" {
		f, err := os.Create(o.exectrace)
		if err != nil {
			stop()
			return nil, err
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			stop()
			return nil, err
		}
		stops = append(stops, func() error { rtrace.Stop(); return f.Close() })
	}
	if o.memprofile != "" {
		stops = append(stops, func() error {
			f, err := os.Create(o.memprofile)
			if err != nil {
				return err
			}
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}
	return stop, nil
}
