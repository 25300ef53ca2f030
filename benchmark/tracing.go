package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer is the benchmark's own instrumentation: every span is recorded
// from this package, around calls into a layer's public functions. Hot spans
// (one per MPI call, one per application step) are aggregated per rank into
// count/sum/max and a log2 histogram, so tracing a 4096-rank run costs two
// clock reads per span and no shared state. Coarse spans (waves, stages,
// loads, cold I/O, recoveries, epoch switches) are kept whole and written as
// a Chrome trace-event file when the run ends.

type hotKind int

const (
	hotStep hotKind = iota
	hotIsend
	hotIrecv
	hotWait
	hotCollective
	hotSnapshot
	hotRestore
	numHot
)

var hotNames = [numHot]string{"app.step", "mpi.isend", "mpi.irecv", "mpi.wait", "mpi.collective", "app.snapshot", "app.restore"}

// histBuckets log2 buckets cover 1 ns to ~18 minutes.
const histBuckets = 40

type hotAgg struct {
	count uint64
	sumNs int64
	maxNs int64
	hist  [histBuckets]uint32
}

func (a *hotAgg) add(ns int64) {
	a.count++
	a.sumNs += ns
	if ns > a.maxNs {
		a.maxNs = ns
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	a.hist[b]++
}

func (a *hotAgg) merge(o *hotAgg) {
	a.count += o.count
	a.sumNs += o.sumNs
	if o.maxNs > a.maxNs {
		a.maxNs = o.maxNs
	}
	for i, n := range o.hist {
		a.hist[i] += n
	}
}

// quantileNs returns the upper edge of the bucket holding the q-quantile:
// a factor-of-two bound, which is what a fixed-bucket histogram can give.
func (a *hotAgg) quantileNs(q float64) int64 {
	if a.count == 0 {
		return 0
	}
	target := uint64(q * float64(a.count))
	var seen uint64
	for i, n := range a.hist {
		seen += uint64(n)
		if seen > target {
			return min(int64(1)<<i, a.maxNs)
		}
	}
	return a.maxNs
}

// rankAgg is owned by one rank's goroutine: no synchronization.
type rankAgg struct {
	hot [numHot]hotAgg
	// childNs accumulates MPI time inside the current app.step, so the step's
	// self time is its duration minus its children.
	childNs      int64
	stepSelfNs   int64
	captureStart int64
}

// span is one coarse span. Times are nanoseconds since the tracer's origin.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Rank   int32  `json:"rank"`
	Wave   int32  `json:"wave"`
	Bytes  int64  `json:"bytes"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

const spanShards = 64

type spanShard struct {
	mu    sync.Mutex
	spans []span
}

// waveKey identifies one checkpoint wave across hooks and storage calls.
type waveKey struct{ epoch, cluster, wave int }

type tracer struct {
	origin time.Time
	ranks  []rankAgg
	shards [spanShards]spanShard
	nextID atomic.Uint32

	mu sync.Mutex
	// waves maps a draining wave to its open span: opened by the
	// mid-commit-drain hook, extended by every member's publish.
	waves map[waveKey]*span
	// stages maps (rank, wave) to the stage span, the parent of the wave's
	// later cold I/O.
	stages map[[2]int]uint32
	// recovery is the open recovery span: recovery-start opens it, every
	// recovery-end extends it, the next recovery-start or finish closes it.
	recovery    *span
	epochSwitch []int64

	// sample keeps the last two full images of rank 0, the inputs of the
	// codec microbenchmarks.
	sample [2][]byte
}

func newTracer(ranks int) *tracer {
	return &tracer{
		origin: time.Now(),
		ranks:  make([]rankAgg, ranks),
		waves:  make(map[waveKey]*span),
		stages: make(map[[2]int]uint32),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) id() uint32 { return t.nextID.Add(1) }

// record stores a finished coarse span, assigning an id when it has none.
func (t *tracer) record(s span) uint32 {
	if s.ID == 0 {
		s.ID = t.id()
	}
	sh := &t.shards[uint32(s.Rank+s.Wave)%spanShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
	return s.ID
}

// finish closes the spans that stay open until the run ends and returns all
// coarse spans in start order.
func (t *tracer) finish() []span {
	t.mu.Lock()
	for _, w := range t.waves {
		t.record(*w)
	}
	t.waves = map[waveKey]*span{}
	if t.recovery != nil {
		t.record(*t.recovery)
		t.recovery = nil
	}
	t.mu.Unlock()
	var all []span
	for i := range t.shards {
		all = append(all, t.shards[i].spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// hotTotal merges one hot kind over all ranks.
func (t *tracer) hotTotal(k hotKind) hotAgg {
	var sum hotAgg
	for r := range t.ranks {
		sum.merge(&t.ranks[r].hot[k])
	}
	return sum
}

func (t *tracer) stepSelf() time.Duration {
	var ns int64
	for r := range t.ranks {
		ns += t.ranks[r].stepSelfNs
	}
	return time.Duration(ns)
}

// spanStats summarizes the coarse spans of one name.
type spanStats struct {
	count int
	busy  time.Duration
	bytes int64
	durs  []float64 // seconds
}

func statsOf(spans []span, name string) spanStats {
	var st spanStats
	for i := range spans {
		if spans[i].Name != name {
			continue
		}
		st.count++
		st.busy += spans[i].dur()
		st.bytes += spans[i].Bytes
		st.durs = append(st.durs, spans[i].dur().Seconds())
	}
	return st
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format;
// chrome://tracing, Perfetto and speedscope all open it.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the coarse spans plus one summary event per hot
// span kind (hot spans are aggregated, so they appear as totals, not as
// individual slices).
func writeChromeTrace(path string, spans []span, t *tracer) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "{\"traceEvents\":[\n")
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		return enc.Encode(ev)
	}
	for i := range spans {
		s := &spans[i]
		ev := chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Rank,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "wave": s.Wave, "bytes": s.Bytes},
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
	for k := hotKind(0); k < numHot; k++ {
		a := t.hotTotal(k)
		ev := chromeEvent{
			Name: hotNames[k] + " (aggregate)", Cat: "hot", Ph: "X", Ts: 0, Dur: float64(a.sumNs) / 1e3,
			Pid: 2, Tid: int32(k),
			Args: map[string]any{"count": a.count, "max_ns": a.maxNs, "p50_ns_le": a.quantileNs(0.5), "p99_ns_le": a.quantileNs(0.99)},
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	return w.Flush()
}
