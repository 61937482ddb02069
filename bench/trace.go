package main

// Spans recorded from the benchmark's own files around its calls into
// each layer. They stay in memory and are summarized at the end of the
// traced pass; nothing is recorded while tracing is off.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type span struct {
	name       string
	op         int
	parent     int // index of the causing span, -1 for an op span
	start, end time.Duration
}

// tracer collects spans from the load goroutine and from the stream
// client's delivery goroutine.
type tracer struct {
	on     atomic.Bool
	op     atomic.Int64 // current op index
	opSpan atomic.Int64 // index of the current op span, -1 when none
	t0     time.Time

	mu    sync.Mutex
	spans []span
}

// start sets the tracer's time origin; ops are traced while on is set.
func (t *tracer) start() {
	t.t0 = time.Now()
	t.opSpan.Store(-1)
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// beginOp opens op i's root span.
func (t *tracer) beginOp(i int) int {
	t.op.Store(int64(i))
	if !t.on.Load() {
		t.opSpan.Store(-1)
		return -1
	}
	sp := t.add(span{name: "op", op: i, parent: -1, start: t.now(), end: -1})
	t.opSpan.Store(int64(sp))
	return sp
}

// begin opens a span caused by the current op.
func (t *tracer) begin(name string) int { return t.beginUnder(name, int(t.opSpan.Load())) }

// beginUnder opens a span caused by span parent.
func (t *tracer) beginUnder(name string, parent int) int {
	if !t.on.Load() || parent < 0 {
		return -1
	}
	return t.add(span{name: name, op: int(t.op.Load()), parent: parent, start: t.now(), end: -1})
}

// record adds a finished span [start, end) caused by the current op.
func (t *tracer) record(name string, start, end time.Duration) {
	parent := int(t.opSpan.Load())
	if !t.on.Load() || parent < 0 {
		return
	}
	t.add(span{name: name, op: int(t.op.Load()), parent: parent, start: start, end: end})
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time (duration
// minus the union of its children's intervals) and, for op spans, the
// summed time their children cover.
func (t *tracer) selfTimes() (self map[string]time.Duration, counts map[string]int, opTotal, opCovered time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self = map[string]time.Duration{}
	counts = map[string]int{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue // op cut off when the timed phase ended
		}
		covered := t.union(s, children[i])
		self[s.name] += s.end - s.start - covered
		counts[s.name]++
		if s.parent < 0 {
			opTotal += s.end - s.start
			opCovered += covered
		}
	}
	return self, counts, opTotal, opCovered
}

// union is the length of s's interval covered by the given spans.
func (t *tracer) union(s span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		c := t.spans[k]
		a, b := max(c.start, s.start), min(c.end, s.end)
		if c.end >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanMetrics are the spans reported as <name>_ms (mean self time per
// op); every workload reports all of them, 0 where a layer is unused.
var spanMetrics = []string{
	"xcql.compile", "xcql.eval", "xmldom.encode", "fragment.labels",
	"stream.publish", "segstore.append", "stream.deliver", "registry.apply",
}

func (t *tracer) layerMetrics(m metrics, ops int) {
	self, _, opTotal, opCovered := t.selfTimes()
	n := float64(max(ops, 1))
	for _, name := range spanMetrics {
		m.set(name+"_ms", ms(self[name])/n, "ms")
	}
	if opTotal > 0 {
		m.set("bench.span_coverage", float64(opCovered)/float64(opTotal), "ratio")
	}
}

// report prints the per-span self-time table of the traced pass.
func (t *tracer) report(ops int) {
	self, counts, opTotal, opCovered := t.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	n := float64(max(ops, 1))
	fmt.Printf("traced ops: %d, %d spans; named spans cover %.1f%% of op time\n",
		ops, len(t.spans), 100*float64(opCovered)/float64(max(opTotal, 1)))
	for _, name := range names {
		fmt.Printf("  span %-18s calls/op=%6.2f self=%8.3fms/op\n", name, float64(counts[name])/n, ms(self[name])/n)
	}
}
