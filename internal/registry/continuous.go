package registry

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/stream"
	"xcql/internal/xcql"
	"xcql/internal/xq"
)

// ContinuousQuery re-evaluates a compiled XCQL query whenever new
// fragments arrive, emitting results to a callback. This is the
// "continuous output stream" of the paper's model: the query stands, the
// data moves.
//
// It is a handle on a private Registry holding one registration that
// delivers through OnResult, so it runs the same standing-query core as
// shared registrations with nothing to share. A non-governed evaluation
// error is returned from Evaluate/EvaluateFragment instead of being
// delivered.
type ContinuousQuery struct {
	// Clock supplies the evaluation instant; defaults to time.Now. Tests
	// and replays pin it to the fragment timeline.
	Clock func() time.Time
	// Limits bounds each evaluation (per-evaluation deadline via
	// Limits.Timeout, plus step/cardinality/byte budgets); a change
	// takes effect at the next evaluation. The zero value falls back to
	// the compiled query's own Limits. A budget- or deadline-killed
	// evaluation does not wedge the delivering goroutine: it marks the
	// query degraded with the trip reason and emits an empty result
	// carrying it.
	Limits xcql.Limits

	query    *xcql.Query
	onResult func(Result)
	r        *Registry
	reg      atomic.Pointer[Registration]

	// evalMu serializes evaluations and mode switches; err carries the
	// non-governed error of the evaluation in flight out of the delivery
	// callback.
	evalMu sync.Mutex
	err    error
}

// NewContinuousQuery wraps a compiled query. onResult is invoked after
// every (re-)evaluation, on the goroutine that delivered the triggering
// fragment.
func NewContinuousQuery(q *xcql.Query, onResult func(Result)) *ContinuousQuery {
	cq := &ContinuousQuery{Clock: time.Now, query: q, onResult: onResult}
	cq.r = New(func() time.Time { return cq.Clock() })
	cq.reg.Store(cq.register(false))
	return cq
}

func (cq *ContinuousQuery) register(incremental bool) *Registration {
	// a private registry has no admission bound, and q is non-nil for
	// every compiled query, so Register cannot fail here
	reg, _ := cq.r.Register(cq.query, Options{Incremental: incremental, Limits: cq.Limits, OnResult: cq.deliver})
	return reg
}

// deliver is the registration's OnResult: a non-governed error is kept
// for EvaluateFragment to return; everything else reaches the callback.
func (cq *ContinuousQuery) deliver(res Result) {
	if res.Err != nil {
		cq.err = res.Err
		return
	}
	if cq.onResult != nil {
		cq.onResult(res)
	}
}

// Query returns the compiled query this continuous query re-evaluates,
// e.g. to Explain it or read its LastStats.
func (cq *ContinuousQuery) Query() *xcql.Query { return cq.query }

// WithIncremental switches the query between full re-evaluation per
// arrival (the default) and incremental delta evaluation: the plan is
// decomposed into per-tag handlers (internal/inc) and each arrival
// recomputes only the partial-match state its tag can reach. Deltas and
// the standing result (ItemsSnapshot) are byte-identical to full mode;
// per-arrival Result.Items stays nil. Set it before attaching — toggling
// mid-stream re-emits the standing result. Returns cq for chaining.
func (cq *ContinuousQuery) WithIncremental(on bool) *ContinuousQuery {
	cq.evalMu.Lock()
	defer cq.evalMu.Unlock()
	old := cq.reg.Load()
	if (old.eng != nil) == on {
		return cq
	}
	old.Close()
	next := cq.register(on)
	// the switch keeps the query's counters and degradation
	old.mu.Lock()
	next.latency, next.evals, next.degraded = old.latency, old.evals, old.degraded
	old.mu.Unlock()
	cq.reg.Store(next)
	return cq
}

// IncrementalStrategy describes how the plan decomposed (see
// inc.Engine.Strategy); empty when incremental mode is off.
func (cq *ContinuousQuery) IncrementalStrategy() string {
	if eng := cq.reg.Load().eng; eng != nil {
		return eng.Strategy()
	}
	return ""
}

// Attach subscribes the query to a client: every applied fragment
// triggers a re-evaluation, and a sequence gap invalidates the query
// (every current item re-emits, and subsequent results carry the
// degradation reason) — a lost filler can never silently narrow the
// result. The paper's clients never unregister individual queries; a
// client-local query just stops being attached when the client closes.
func (cq *ContinuousQuery) Attach(c *stream.Client) {
	c.OnGap(func(g stream.Gap) { cq.Invalidate(g.String()) })
	c.OnFragment(func(f *fragment.Fragment) { _ = cq.EvaluateFragment(f) })
}

// Evaluate runs the query once at the current clock instant, updates the
// delta state, and emits the result.
//
// A resource-governed failure — budget trip, per-evaluation deadline, or
// admission-control rejection — is part of normal continuous operation,
// not an error: the query is invalidated and an empty result carrying
// the reason is emitted, so the subscription keeps flowing. Other
// evaluation errors are returned and nothing is emitted.
func (cq *ContinuousQuery) Evaluate() error { return cq.EvaluateFragment(nil) }

// EvaluateFragment runs one evaluation triggered by the given fragment
// arrival (nil for a fragment-less re-evaluation, e.g. a clock advance).
// Full mode ignores the fragment — it re-reads the whole store anyway;
// incremental mode uses it to touch only the state reachable from the
// fragment's tag. Attach feeds every applied fragment through here.
func (cq *ContinuousQuery) EvaluateFragment(f *fragment.Fragment) error {
	cq.evalMu.Lock()
	defer cq.evalMu.Unlock()
	cq.r.relimit(cq.reg.Load(), cq.Limits)
	cq.err = nil
	cq.r.Apply(f)
	return cq.err
}

// Invalidate marks the query degraded for the given reason and resets
// the delta state: the next evaluation re-emits everything it can still
// see, and every result carries the reason until ClearDegraded.
func (cq *ContinuousQuery) Invalidate(reason string) { cq.reg.Load().Invalidate(reason) }

// ResetDelta forgets previously seen results, so the next evaluation
// reports everything as new.
func (cq *ContinuousQuery) ResetDelta() {
	reg := cq.reg.Load()
	reg.mu.Lock()
	reg.resetLocked()
	reg.mu.Unlock()
}

// ClearDegraded re-arms the query after the consumer has handled the
// degradation (e.g. re-fetched state out of band).
func (cq *ContinuousQuery) ClearDegraded() { cq.reg.Load().ClearDegraded() }

// ItemsSnapshot returns the full standing result at the last applied
// instant: the incremental engine's buffers, or the last full-mode
// evaluation's items. The items are shared with the engine; callers
// must not mutate them.
func (cq *ContinuousQuery) ItemsSnapshot() xq.Sequence { return cq.reg.Load().ItemsSnapshot() }

// Evaluations returns the number of completed evaluations (including
// degraded and failed ones).
func (cq *ContinuousQuery) Evaluations() int64 {
	reg := cq.reg.Load()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.evals
}

// Latency is the per-fragment ingest→result histogram: from the instant
// an evaluation is triggered (the fragment has just been applied to the
// store) to the result callback returning — the time a freshly arrived
// filler takes to become query output.
func (cq *ContinuousQuery) Latency() *obs.Histogram { return cq.reg.Load().Latency() }

// BufferBytes is the current delta-state memory in serialized bytes (see
// Registration.BufferBytes).
func (cq *ContinuousQuery) BufferBytes() int64 { return cq.reg.Load().BufferBytes() }

// BufferHWMBytes is the high-water mark of BufferBytes over the query's
// lifetime.
func (cq *ContinuousQuery) BufferHWMBytes() int64 { return cq.reg.Load().BufferHWMBytes() }

// SetLogger installs (or, with nil, removes) the structured logger that
// receives one event per evaluation.
func (cq *ContinuousQuery) SetLogger(l *slog.Logger) { cq.r.logger.Store(l) }

// SetFlightRecorder attaches a flight recorder: traced fragment arrivals
// record a "registry.eval" span with a "fanout" child (and, in
// incremental mode, the engine's "inc.recompute" span), the latency
// histogram keeps trace-id exemplars, and degraded evaluations flag
// their trace. nil detaches.
func (cq *ContinuousQuery) SetFlightRecorder(rec *obs.FlightRecorder) { cq.r.SetFlightRecorder(rec) }

// RegisterMetrics publishes the ingest→result latency histogram
// (count/sum/max and p50/p90/p99 under prefix_latency_*, in nanoseconds)
// and the evaluation, buffer and degradation gauges. With prefix "cq"
// the exposed names include cq_latency_p99 — the headline end-to-end
// freshness number of the pipeline.
func (cq *ContinuousQuery) RegisterMetrics(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	cq.Latency().Register(r, prefix+"_latency")
	r.Gauge(prefix+"_evals", cq.Evaluations)
	r.Gauge(prefix+"_buffer_bytes", cq.BufferBytes)
	r.Gauge(prefix+"_buffer_hwm_bytes", cq.BufferHWMBytes)
	r.Gauge(prefix+"_degraded", func() int64 {
		if _, degraded := cq.reg.Load().Degraded(); degraded {
			return 1
		}
		return 0
	})
}
