// Command bench is the repository's end-to-end benchmark. It runs one
// closed-loop workload for a fixed time, checks every output, and prints
// a human-readable report followed, as its last line, by one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
// latency_p50_ms, latency_tail_ms, heap_live_mb); with -trace 1 the run
// records spans around the calls into each layer and reports per-layer
// metrics named <module>.<metric> instead. See README.md for the
// workloads and what each one isolates.
//
//	go build -o xcqlbench . && ./xcqlbench -workload history-query -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Set-up passes: each workload repeats its set-up calls at least
// minSetups times and until setupBudget has passed (at most maxSetups
// times); setup_s is the median pass.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 6 * time.Second
)

// timeSetups runs pass, timed, as often as the set-up policy above asks,
// each time from a collected heap; teardown releases the state of every
// pass but the last.
func timeSetups(pass func() error, teardown func()) ([]time.Duration, error) {
	var times []time.Duration
	start := time.Now()
	for len(times) < maxSetups && (len(times) < minSetups || time.Since(start) < setupBudget) {
		if len(times) > 0 && teardown != nil {
			teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := pass(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
	}
	return times, nil
}

// workload is one benchmark workload. setup builds the program's state
// in repeated passes (see timeSetups), returning the time of each
// program set-up pass (input generation and reference results
// excluded), then warms caches and indexes. prepare generates the
// inputs of op i of the seeded sequence, untimed; op runs it and returns
// its class and a check of its output, which also runs outside the op's
// timing. Ops run on the caller's goroutine, one at a time.
type workload interface {
	setup(tr *tracer) (setupTimes []time.Duration, err error)
	prepare(i int)
	op(i int) (class string, verify func() bool, err error)
	// tail is the percentile reported as latency_tail_ms, chosen so
	// that one run keeps well over ten samples beyond it.
	tail() float64
	// layerStart marks the start of a traced timed phase; layerMetrics
	// then adds the workload's per-layer counters to m: means per traced
	// op for what is only counted while tracing, per op for the
	// program's own cumulative counters.
	layerStart()
	layerMetrics(m metrics, traced, ops int)
	// finish checks end-of-run invariants and releases resources.
	finish() error
}

var workloads = map[string]func(seed uint64) workload{
	"history-query":   newHistoryQuery,
	"standing-stream": newStandingStream,
	"ingest-query":    newIngestQuery,
}

func main() {
	name := flag.String("workload", "", "workload: history-query, standing-stream or ingest-query")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs and the op sequence")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or bad -seconds\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := run(mk(*seed), *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// phase is what the timed phase observed.
type phase struct {
	lat       []float64 // ms per completed op, in op order
	class     []string
	traced    []bool
	wall      time.Duration
	attempted int
	failed    int
	mem       memDelta
}

// timedPhase runs the op sequence in a closed loop for d and returns
// what it saw; the first op error ends the run. When traced, every
// second op is traced, so traced and untraced ops share the same store
// state and host conditions and their difference is the tracing cost.
func timedPhase(w workload, tr *tracer, d time.Duration, traced bool) (phase, error) {
	var p phase
	before := readMem()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		w.prepare(i)
		on := traced && i%2 == 1
		tr.on.Store(on)
		t0 := time.Now()
		sp := tr.beginOp(i)
		class, verify, err := w.op(i)
		tr.end(sp)
		el := time.Since(t0)
		tr.on.Store(false)
		p.attempted++
		if err != nil {
			return p, fmt.Errorf("op %d (%s): %w", i, class, err)
		}
		if !verify() {
			p.failed++
		}
		p.lat = append(p.lat, ms(el))
		p.class = append(p.class, class)
		p.traced = append(p.traced, on)
	}
	p.wall = time.Since(start)
	p.mem = readMem().sub(before)
	return p, nil
}

func run(w workload, name string, seed uint64, d time.Duration, traced bool) (result, error) {
	refStart := hostRef()
	tr := &tracer{}
	setups, err := w.setup(tr)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	if traced {
		tr.start()
		w.layerStart()
	}
	// warm-up is part of setup in every workload; timing starts from a
	// freshly collected heap
	runtime.GC()
	p, err := timedPhase(w, tr, d, traced)
	if err != nil {
		return result{}, err
	}
	heap := liveHeapMB()
	res := result{Attempted: p.attempted, Failed: p.failed, Metrics: metrics{}}
	if err := w.finish(); err != nil {
		fmt.Printf("end-of-run check failed: %v\n", err)
		res.Failed++
	}
	res.Correct = res.Failed == 0
	refEnd := hostRef()

	// end-to-end latencies come from untraced ops only
	var lat []float64
	var tracedLat []float64
	for i, l := range p.lat {
		if p.traced[i] {
			tracedLat = append(tracedLat, l)
		} else {
			lat = append(lat, l)
		}
	}
	p50, tail := percentile(lat, 50), percentile(lat, w.tail())
	fmt.Printf("workload=%s seed=%d ops=%d gomaxprocs=%d nproc=%d go=%s host_ref_ms_start=%.3f host_ref_ms_end=%.3f\n",
		name, seed, p.attempted, runtime.GOMAXPROCS(0), runtime.NumCPU(), goVersion(), refStart, refEnd)
	fmt.Printf("error_ratio=%g (%d failed of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Printf("latency p50=%.3fms p%g=%.3fms (n=%d untraced, %d beyond the tail percentile)\n",
		p50, w.tail(), tail, len(lat), beyond(lat, tail))
	printBands(p, w.tail())
	printDrift(p)

	if !traced {
		res.Metrics.set("setup_s", median(seconds(setups)), "s")
		res.Metrics.set("ops_per_s", float64(len(p.lat))/p.wall.Seconds(), "1/s")
		res.Metrics.set("latency_p50_ms", p50, "ms")
		res.Metrics.set("latency_tail_ms", tail, "ms")
		res.Metrics.set("heap_live_mb", heap, "MB")
		return res, nil
	}
	n := len(tracedLat)
	m := res.Metrics
	tr.layerMetrics(m, n)
	w.layerMetrics(m, n, len(p.lat))
	p.mem.layerMetrics(m, len(p.lat))
	m.set("host.ref_ms", (refStart+refEnd)/2, "ms")
	tp50 := percentile(tracedLat, 50)
	fmt.Printf("tracing overhead: p50 %.3fms over %d traced ops vs %.3fms over %d untraced (%+.1f%%)\n",
		tp50, n, p50, len(lat), 100*(tp50/p50-1))
	m.set("bench.trace_overhead", tp50/p50-1, "ratio")
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; !ok {
			m.set(pl.name, 0, pl.unit) // layer unused by this workload
		}
	}
	tr.report(n)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func goVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		return bi.GoVersion
	}
	return runtime.Version()
}

// buildDir holds the benchmark's scratch files, relative to the
// checkout root the benchmark runs from.
const buildDir = ".bench_build"

// perLayer lists every per-layer metric a traced run reports, as in
// BENCHMARK.json.
var perLayer = []struct{ name, unit string }{
	{"xcql.compile_ms", "ms"}, {"xcql.eval_ms", "ms"}, {"xcql.exec_ms", "ms"}, {"xcql.materialize_ms", "ms"},
	{"xmldom.encode_ms", "ms"},
	{"xcql.fillers_scanned", "count"}, {"xcql.tsid_hits", "count"}, {"xcql.label_hits", "count"},
	{"xcql.holes_resolved", "count"}, {"xcql.bytes_materialized", "B"}, {"xcql.nodes_constructed", "count"},
	{"xcql.result_items", "count"},
	{"fragment.labels_ms", "ms"},
	{"segstore.append_ms", "ms"}, {"segstore.fsyncs", "count"}, {"segstore.bytes_written", "B"},
	{"segstore.write_amp", "ratio"},
	{"stream.publish_ms", "ms"}, {"stream.deliver_ms", "ms"}, {"stream.wire_bytes", "B"},
	{"registry.apply_ms", "ms"}, {"registry.fillers_touched", "count"}, {"registry.shared_evals", "count"},
	{"registry.shared_saved", "count"}, {"registry.share_ratio", "ratio"}, {"registry.fanout", "count"},
	{"inc.handler_invocations", "count"}, {"inc.shared_unit_hit_ratio", "ratio"}, {"inc.buffer_hwm_bytes", "B"},
	{"runtime.alloc_bytes", "B"}, {"runtime.allocs", "count"}, {"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"host.ref_ms", "ms"}, {"bench.span_coverage", "ratio"}, {"bench.trace_overhead", "ratio"},
}
