// Package registry is the multi-tenant standing-query layer: one
// process-wide registry accepts many compiled XCQL registrations,
// groups them by the tsid access paths their plans touch (what
// Query.Explain already computes), and evaluates each shared path once
// per arriving fragment instead of once per query. Within a group,
// full-mode registrations with identical plans share one evaluation per
// arrival, and incremental registrations share individual partial-match
// unit evaluations through an inc.SharedPass — the registry is the
// layer that dedupes PR 6's per-tag/per-filler units *across* queries.
//
// The registry is the repo's one standing-query core. A
// ContinuousQuery is a handle on a private registry holding a single
// registration, so every registration's observable output — its
// per-arrival delta stream and its standing result — is byte-identical
// to the same query evaluated alone (the registry-equivalence harness
// pins both against a plain re-evaluation oracle). Sharing changes
// cost, never results.
//
// Sharing is scoped for soundness: a group key combines the access-path
// signature with the identity of the stores the plan reads and a
// fingerprint of the registration's effective limits, so two queries
// share work only when their evaluations are guaranteed identical
// (same store state, same instant, same budgets). Each arrival gets a
// fresh SharedPass; nothing memoized outlives the arrival, so there is
// no cross-arrival invalidation protocol to get wrong.
//
// Delivery is per-registration with backpressure: a subscriber that
// cannot keep up loses results but never silently — the registration is
// invalidated (its next delivery re-emits the whole standing result)
// and marked degraded with the drop reason, exactly the contract the
// stream client applies to transport gaps.
package registry

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/inc"
	"xcql/internal/obs"
	"xcql/internal/stream"
	"xcql/internal/xcql"
	"xcql/internal/xq"
)

// Result is one delivery to a registration: the delta this arrival
// produced for that query, or the failure that replaced it.
type Result struct {
	// At is the evaluation instant (what "now" resolved to).
	At time.Time
	// Items is the full result sequence at that instant — full-mode
	// registrations only: incremental deliveries leave it nil, so the
	// per-arrival cost stays proportional to the delta (use
	// Registration.ItemsSnapshot), and so do degraded emissions after a
	// governed failure.
	Items xq.Sequence
	// Delta contains the items absent (by serialized form) from the
	// registration's previous result, in result order. After an
	// invalidation the whole standing result re-emits here.
	Delta xq.Sequence
	// Degraded is non-empty while the registration is degraded: lost
	// fragments, a tripped budget, or subscriber backpressure may have
	// narrowed what this delta stream carried; the standing result has
	// been (or will be) re-emitted.
	Degraded string
	// Err is a non-governed evaluation error (e.g. CaQ's fn:view before
	// the root filler exists). The registration stays registered; the
	// arrival produced no delta. Governed failures (budget, deadline,
	// admission) never surface here — they degrade instead.
	Err error
	// TraceID is the trace id of the fragment arrival that produced this
	// delivery (0 when untraced): the link from a subscriber's result
	// back to the publish→fsync→eval→fanout span tree in /v1/tracez. It
	// rides the WebSocket subscribe path as WireResult.Trace.
	TraceID uint64
}

// Options configures one registration.
type Options struct {
	// Incremental selects delta evaluation through internal/inc (per
	// arrival cost proportional to the dirty state) instead of full
	// re-evaluation per arrival.
	Incremental bool
	// Limits bounds each evaluation of this registration. The zero
	// value falls back to the compiled query's own Limits.
	Limits xcql.Limits
	// OnResult, when set, delivers synchronously on the arrival
	// goroutine (no backpressure, no drops) — the mode tests and
	// embedded consumers use. When nil, results are delivered through
	// the registration's channel (see Registration.C) with Buffer
	// capacity and backpressure-by-invalidation on overflow.
	OnResult func(Result)
	// Buffer is the delivery channel capacity when OnResult is nil
	// (default 64).
	Buffer int
}

// DefaultBuffer is the delivery-channel capacity when Options.Buffer is
// unset.
const DefaultBuffer = 64

// Registry is the standing-query registry. All methods are safe for
// concurrent use; fragment arrivals are serialized internally.
type Registry struct {
	// evalMu serializes arrivals (Apply/Evaluate): shared passes are
	// scoped to one arrival, so two arrivals must not interleave.
	evalMu sync.Mutex

	mu      sync.Mutex
	clock   func() time.Time
	regs    map[int64]*Registration
	groups  map[string]*group
	nextID  int64
	maxRegs int

	// process-level counters, under mu.
	applies     int64
	sharedEvals int64
	sharedSaved int64
	fanout      int64
	overloads   int64
	drops       int64
	reseeds     int64

	// tracer, when set, records "registry.eval" and per-registration
	// "fanout" spans for traced arrivals and flags degraded/backpressure
	// traces. Guarded by mu; nil = off.
	tracer *obs.FlightRecorder

	// logger, when set (ContinuousQuery.SetLogger), receives one
	// "continuous evaluation" event per delivery. nil = off: the
	// disabled path is one atomic load.
	logger atomic.Pointer[slog.Logger]
}

// SetFlightRecorder attaches a flight recorder: traced arrivals record
// a "registry.eval" span per sharing group and a "fanout" span per
// registration delivery, and the recorder is propagated into every
// registration's incremental engine (current and future). nil detaches.
func (r *Registry) SetFlightRecorder(rec *obs.FlightRecorder) {
	r.mu.Lock()
	r.tracer = rec
	engines := make([]*inc.Engine, 0, len(r.regs))
	for _, reg := range r.regs {
		if reg.eng != nil {
			engines = append(engines, reg.eng)
		}
	}
	r.mu.Unlock()
	for _, eng := range engines {
		eng.SetFlightRecorder(rec)
	}
}

// New returns an empty registry. The clock supplies evaluation instants
// for Apply; nil means time.Now (tests pin it to the fragment
// timeline).
func New(clock func() time.Time) *Registry {
	if clock == nil {
		clock = time.Now
	}
	return &Registry{
		clock:  clock,
		regs:   make(map[int64]*Registration),
		groups: make(map[string]*group),
	}
}

// SetClock replaces the evaluation clock (nil restores time.Now).
func (r *Registry) SetClock(clock func() time.Time) {
	if clock == nil {
		clock = time.Now
	}
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// SetMaxRegistrations bounds the number of concurrently registered
// standing queries (n <= 0 means unlimited). Over the bound, Register
// rejects fast with a typed *xcql.OverloadError instead of queuing —
// per-registration admission control; existing registrations and their
// shared groups keep evaluating.
func (r *Registry) SetMaxRegistrations(n int) {
	r.mu.Lock()
	r.maxRegs = n
	r.mu.Unlock()
}

// group is one sharing scope: every registration whose plan touches the
// same access paths over the same stores under the same limits.
type group struct {
	key     string
	pathSig string
	members map[int64]*Registration
	// sigRef refcounts incremental unit signatures across members: a
	// signature with refcount K is evaluated once per arrival and
	// shared K ways.
	sigRef map[string]int
	// fullShares maps full-mode plan identities to the member ids
	// holding them, so identical full-mode plans evaluate once.
	fullShares map[string]map[int64]bool
	// engShares maps incremental plan identities to a single shared
	// inc.Engine: identical incremental registrations advance ONE
	// engine per arrival and fan the delta out, so per-member cost is a
	// delivery, not an evaluation. The engine lives while any member
	// holds it (refcount) and dies with the last Close.
	engShares map[string]*engShare

	sharedEvals int64
	sharedSaved int64
	fanout      int64
	stats       obs.EvalStats
	latency     *obs.Histogram
}

// Registration is one standing query's handle: consume results via C
// (or the OnResult callback), inspect degradation, and Close to
// unregister.
type Registration struct {
	id   int64
	r    *Registry
	q    *xcql.Query
	opts Options
	lim  xcql.Limits
	g    *group
	// fullKey is the full-mode sharing identity (mode + canonical
	// plan); empty for incremental registrations. incKey is the
	// incremental engine-sharing identity; empty for full-mode ones.
	fullKey string
	incKey  string
	eng     *inc.Engine
	sigs    []string

	mu         sync.Mutex
	seen       map[string]bool // full mode: previous result's serials
	lastItems  xq.Sequence     // full mode: previous result (standing snapshot)
	degraded   string
	needReseed bool
	closed     bool
	ch         chan Result
	dropped    int64
	evals      int64
	latency    *obs.Histogram
	// delta-state memory in serialized bytes (full mode: the seen set;
	// incremental: the engine's partial-match buffers) and its
	// high-water mark.
	bufBytes int64
	bufHWM   int64
}

// RegStats is a snapshot of one registration's delivery counters.
type RegStats struct {
	ID          int64
	Group       string
	Incremental bool
	Evaluations int64
	Dropped     int64
	Degraded    string
}

// Stats is a snapshot of the registry's process-level counters.
type Stats struct {
	// Registrations and Groups are the live registration and sharing-
	// group counts.
	Registrations int
	Groups        int
	// Applies counts fragment arrivals (plus fragment-less Evaluate
	// calls) the registry processed.
	Applies int64
	// SharedEvals counts evaluations actually performed: incremental
	// unit misses plus one per full-mode shared plan per arrival.
	SharedEvals int64
	// SharedSaved counts evaluations sharing made unnecessary:
	// incremental unit hits plus the extra members a full-mode shared
	// evaluation served.
	SharedSaved int64
	// Fanout counts results delivered to registrations.
	Fanout int64
	// Overloads counts Register rejections by admission control.
	Overloads int64
	// BackpressureDrops counts deliveries dropped on full subscriber
	// channels (each one invalidates its registration).
	BackpressureDrops int64
	// Reseeds counts invalidation-triggered full rebuilds.
	Reseeds int64
}

// GroupStats is a snapshot of one sharing group.
type GroupStats struct {
	// Key is the group's access-path signature (human-readable part of
	// the sharing scope).
	Key string
	// Members is the live registration count.
	Members int
	// SharedUnits counts incremental unit signatures held by more than
	// one member — the units evaluated once and fanned out.
	SharedUnits int
	// SharedEvals / SharedSaved / Fanout mirror the registry-level
	// counters, scoped to this group.
	SharedEvals int64
	SharedSaved int64
	Fanout      int64
	// Stats accumulates the group's evaluation cost counters across
	// arrivals: with K members sharing a path, FillersScanned grows
	// like one query's cost, not K of them.
	Stats obs.EvalStats
}

// Register adds a compiled standing query. The registration is grouped
// with every earlier registration sharing its access paths (same
// stores, same limits) and starts receiving a Result per subsequent
// arrival. Registration itself performs no evaluation; the first
// arrival (or Evaluate call) seeds the standing state and emits it as
// the first delta.
func (r *Registry) Register(q *xcql.Query, opts Options) (*Registration, error) {
	if q == nil {
		return nil, fmt.Errorf("registry: nil query")
	}
	reg := &Registration{
		r:       r,
		q:       q,
		opts:    opts,
		lim:     effectiveLimits(q, opts.Limits),
		seen:    make(map[string]bool),
		latency: obs.NewHistogram(),
	}
	if opts.OnResult == nil {
		buf := opts.Buffer
		if buf <= 0 {
			buf = DefaultBuffer
		}
		reg.ch = make(chan Result, buf)
	}
	if opts.Incremental {
		reg.incKey = "inc\x00" + q.Mode.String() + "\x00" + q.Plan.String()
		reg.eng = inc.New(q)
		reg.sigs = reg.eng.UnitSignatures()
	} else {
		reg.fullKey = q.Mode.String() + "\x00" + q.Plan.String()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.maxRegs > 0 && len(r.regs) >= r.maxRegs {
		r.overloads++
		return nil, &xcql.OverloadError{Active: len(r.regs), Max: r.maxRegs}
	}
	r.nextID++
	reg.id = r.nextID
	r.join(reg)
	r.regs[reg.id] = reg
	return reg, nil
}

// effectiveLimits is the budget one evaluation runs under: the
// registration's own limits, or the compiled query's when those are
// zero.
func effectiveLimits(q *xcql.Query, lim xcql.Limits) xcql.Limits {
	if lim == (xcql.Limits{}) {
		return q.Limits
	}
	return lim
}

// join adds reg to the sharing group its plan and limits select,
// creating the group on first use. An incremental registration whose
// plan identity already has a live engine in the group adopts it and
// re-emits that engine's standing result on its first delivery. The
// caller holds r.mu.
func (r *Registry) join(reg *Registration) {
	key, pathSig := groupKey(reg.q, reg.lim)
	g := r.groups[key]
	if g == nil {
		g = &group{
			key:        key,
			pathSig:    pathSig,
			members:    make(map[int64]*Registration),
			sigRef:     make(map[string]int),
			fullShares: make(map[string]map[int64]bool),
			engShares:  make(map[string]*engShare),
			latency:    obs.NewHistogram(),
		}
		r.groups[key] = g
	}
	reg.mu.Lock()
	reg.g = g
	reg.mu.Unlock()
	g.members[reg.id] = reg
	for _, sig := range reg.sigs {
		g.sigRef[sig]++
	}
	if reg.fullKey != "" {
		fs := g.fullShares[reg.fullKey]
		if fs == nil {
			fs = make(map[int64]bool)
			g.fullShares[reg.fullKey] = fs
		}
		fs[reg.id] = true
	}
	if reg.incKey != "" {
		if share := g.engShares[reg.incKey]; share != nil {
			// adopt the share's live engine: this member's first
			// delivery re-emits the standing result (exactly what a
			// fresh query's first evaluation produces), and from then on
			// it consumes the shared advance.
			reg.eng = share.eng
			share.refs++
			reg.mu.Lock()
			reg.needReseed = true
			reg.mu.Unlock()
		} else {
			g.engShares[reg.incKey] = &engShare{eng: reg.eng, refs: 1}
		}
	}
	if reg.eng != nil {
		reg.eng.SetFlightRecorder(r.tracer)
	}
}

// leave removes reg from its sharing group, dropping the group with its
// last member. The caller holds r.mu.
func (r *Registry) leave(reg *Registration) {
	g := reg.g
	delete(g.members, reg.id)
	for _, sig := range reg.sigs {
		if g.sigRef[sig]--; g.sigRef[sig] <= 0 {
			delete(g.sigRef, sig)
		}
	}
	if fs := g.fullShares[reg.fullKey]; fs != nil {
		delete(fs, reg.id)
		if len(fs) == 0 {
			delete(g.fullShares, reg.fullKey)
		}
	}
	if share := g.engShares[reg.incKey]; share != nil {
		if share.refs--; share.refs <= 0 {
			delete(g.engShares, reg.incKey)
		}
	}
	if len(g.members) == 0 {
		delete(r.groups, g.key)
	}
}

// relimit moves a live registration under new limits between arrivals:
// it leaves its sharing group and joins the one the new effective
// limits select, keeping its delta state. A registration that shared
// its incremental engine with others takes a fresh engine and re-emits.
func (r *Registry) relimit(reg *Registration, limits xcql.Limits) {
	lim := effectiveLimits(reg.q, limits)
	r.evalMu.Lock()
	defer r.evalMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, live := r.regs[reg.id]; !live || lim == reg.lim {
		return
	}
	old := reg.g
	r.leave(reg)
	if share := old.engShares[reg.incKey]; share != nil && share.eng == reg.eng {
		reg.eng = inc.New(reg.q)
		reg.mu.Lock()
		reg.needReseed = true
		reg.mu.Unlock()
	}
	reg.opts.Limits, reg.lim = limits, lim
	r.join(reg)
}

// engShare is one refcounted shared incremental engine: every live
// registration with the same plan identity in the group advances and
// reads the same engine.
type engShare struct {
	eng  *inc.Engine
	refs int
}

// groupKey derives a registration's sharing scope: the sorted access-
// path signature from EXPLAIN, the identity of every store the plan
// reads (sharing across different stores would be unsound), and the
// effective limits fingerprint (sharing across different budgets would
// change which registrations trip).
func groupKey(q *xcql.Query, lim xcql.Limits) (key, pathSig string) {
	ex := q.Explain()
	paths := make([]string, 0, len(ex.Targets))
	for _, t := range ex.Targets {
		p := t.Op + "(" + t.Stream
		if t.TSID > 0 {
			p += fmt.Sprintf(":%d", t.TSID)
		}
		p += ")"
		paths = append(paths, p)
	}
	sort.Strings(paths)
	pathSig = strings.Join(dedupeSorted(paths), " ")
	if pathSig == "" {
		pathSig = "(no store access)"
	}
	stores := make([]string, 0, len(ex.Streams))
	for _, name := range ex.Streams {
		stores = append(stores, fmt.Sprintf("%s=%p", name, q.StreamStore(name)))
	}
	key = pathSig + "\x00" + strings.Join(stores, ",") + "\x00" + fmt.Sprintf("%+v", lim)
	return key, pathSig
}

func dedupeSorted(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// C returns the registration's delivery channel (nil when the
// registration uses an OnResult callback). The channel is closed by
// Close.
func (reg *Registration) C() <-chan Result { return reg.ch }

// ID is the registration's registry-unique id.
func (reg *Registration) ID() int64 { return reg.id }

// Query returns the compiled query, e.g. to Explain it.
func (reg *Registration) Query() *xcql.Query { return reg.q }

// Latency is the registration's per-arrival evaluate→deliver histogram.
func (reg *Registration) Latency() *obs.Histogram { return reg.latency }

// ItemsSnapshot returns the registration's full standing result at the
// last applied instant: the incremental engine's buffers, or the last
// full-mode evaluation's sequence. The items are shared with the
// engine; callers must not mutate them.
func (reg *Registration) ItemsSnapshot() xq.Sequence {
	if reg.eng != nil {
		return reg.eng.ItemsSnapshot()
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.lastItems
}

// Degraded reports the current degradation reason, if any.
func (reg *Registration) Degraded() (string, bool) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.degraded, reg.degraded != ""
}

// ClearDegraded re-arms the registration after the consumer handled a
// degradation.
func (reg *Registration) ClearDegraded() {
	reg.mu.Lock()
	reg.degraded = ""
	reg.mu.Unlock()
}

// Invalidate marks the registration degraded for the given reason and
// schedules a reseed: the next arrival re-emits the whole standing
// result, and every result carries the reason until ClearDegraded.
// Client gaps, governed failures and backpressure drops all funnel
// into this.
func (reg *Registration) Invalidate(reason string) {
	reg.mu.Lock()
	reg.degraded = reason
	reg.resetLocked()
	reg.mu.Unlock()
}

// resetLocked is the one reseed rule: forget the delivered result so the
// next arrival re-emits the whole standing result — full mode diffs
// against an empty seen set, incremental mode emits its engine's
// snapshot. The caller holds reg.mu.
func (reg *Registration) resetLocked() {
	reg.seen = make(map[string]bool)
	reg.bufBytes = 0
	reg.needReseed = true
}

// BufferBytes is the registration's current delta-state memory in
// serialized bytes: the previous-result serial set in full mode, the
// partial-match buffers in incremental mode.
func (reg *Registration) BufferBytes() int64 {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.bufBytes
}

// BufferHWMBytes is the high-water mark of BufferBytes — the memory
// bound the delta state promises (it tracks the standing result's
// cardinality, not the total output history).
func (reg *Registration) BufferHWMBytes() int64 {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.bufHWM
}

// noteBuffer records the current delta-state size. The caller holds
// reg.mu.
func (reg *Registration) noteBuffer(bytes, hwm int64) {
	reg.bufBytes = bytes
	reg.bufHWM = max(reg.bufHWM, hwm, bytes)
}

// Stats snapshots the registration's counters.
func (reg *Registration) Stats() RegStats {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return RegStats{
		ID:          reg.id,
		Group:       reg.g.pathSig,
		Incremental: reg.eng != nil,
		Evaluations: reg.evals,
		Dropped:     reg.dropped,
		Degraded:    reg.degraded,
	}
}

// Close unregisters the standing query. After Close returns, no further
// results are delivered and the delivery channel (if any) is closed.
// Closing an already-closed registration is a no-op.
func (reg *Registration) Close() {
	r := reg.r
	r.mu.Lock()
	if _, live := r.regs[reg.id]; live {
		delete(r.regs, reg.id)
		r.leave(reg)
	}
	r.mu.Unlock()

	reg.mu.Lock()
	wasClosed := reg.closed
	reg.closed = true
	reg.mu.Unlock()
	if !wasClosed && reg.ch != nil {
		close(reg.ch)
	}
}

// deliver hands one result to the subscriber. Callback registrations
// deliver synchronously. Channel registrations never block the shared
// arrival path: a full channel drops the result, counts the drop, and
// invalidates the registration so the standing result re-emits once the
// subscriber drains — backpressure degrades one subscriber, never the
// group.
func (reg *Registration) deliver(res Result) bool {
	reg.mu.Lock()
	if reg.closed {
		reg.mu.Unlock()
		return false
	}
	if cb := reg.opts.OnResult; cb != nil {
		reg.mu.Unlock()
		cb(res)
		// counted after the callback returns, so a reader that sees the
		// count also sees everything the callback recorded
		reg.mu.Lock()
		reg.evals++
		reg.mu.Unlock()
		return true
	}
	reg.evals++
	// the non-blocking send stays under reg.mu: Close marks closed and
	// closes the channel under the same lock, so a send can never race
	// the close
	select {
	case reg.ch <- res:
		reg.mu.Unlock()
		return true
	default:
	}
	reg.dropped++
	reg.degraded = fmt.Sprintf(
		"degraded: backpressure: subscriber queue full, %d results dropped; standing result will re-emit", reg.dropped)
	reg.resetLocked()
	reg.mu.Unlock()
	reg.r.mu.Lock()
	reg.r.drops++
	reg.r.mu.Unlock()
	return false
}

// Apply ingests one fragment arrival (already added to the stores the
// queries read) at the registry clock's current instant: each shared
// group evaluates its shared paths once and fans the per-registration
// deltas out. A nil fragment is a pure re-evaluation (clock advance).
func (r *Registry) Apply(f *fragment.Fragment) {
	r.evalMu.Lock()
	defer r.evalMu.Unlock()
	r.mu.Lock()
	at := r.clock()
	var buf [4]*group // most registries hold a few groups: no allocation
	groups := buf[:0]
	for _, g := range r.groups {
		groups = append(groups, g)
	}
	r.applies++
	r.mu.Unlock()
	// deterministic group order keeps runs reproducible
	slices.SortFunc(groups, func(a, b *group) int { return strings.Compare(a.key, b.key) })
	for _, g := range groups {
		r.applyGroup(g, f, at)
	}
}

// Evaluate runs one fragment-less evaluation (e.g. after preloading a
// store, or on a clock advance): every registration sees it.
func (r *Registry) Evaluate() { r.Apply(nil) }

// applyGroup evaluates one sharing group for one arrival: a fresh
// SharedPass scopes incremental unit sharing to this (fragment,
// instant) cell, and full-mode plans evaluate once per distinct plan.
func (r *Registry) applyGroup(g *group, f *fragment.Fragment, at time.Time) {
	start := time.Now()
	r.mu.Lock()
	rec := r.tracer
	var buf [4]*Registration
	members := buf[:0]
	for _, reg := range g.members {
		members = append(members, reg)
	}
	r.mu.Unlock()
	slices.SortFunc(members, func(a, b *Registration) int { return cmp.Compare(a.id, b.id) })

	// a traced arrival gets one "registry.eval" span per sharing group;
	// each member's delivery hangs off it as a "fanout" child, so K
	// subscribers served by one shared evaluation appear as K children of
	// a single eval node in the span tree.
	var gsp *obs.Span
	var ptc obs.TraceContext
	var tid uint64
	if f != nil {
		tid = f.Trace.TraceID
		gsp = rec.Start(f.Trace, "registry.eval").Annotate("", f.TSID, f.Seq)
		ptc = gsp.Context()
	}

	// the result maps do not escape, so they cost no allocation; the
	// shared pass does, so only a group with an incremental member makes
	// one
	var pass *inc.SharedPass
	fullResults := make(map[string]*fullEval)
	incResults := make(map[string]*incAdvance)
	groupStats := obs.EvalStats{Plan: "group"}
	var delivered int64
	for _, reg := range members {
		memberStart := time.Now()
		fsp := rec.Start(ptc, "fanout").SetReg(reg.id)
		var res Result
		var items int
		if reg.eng != nil {
			if pass == nil {
				pass = inc.NewSharedPass()
			}
			res, items = r.advanceIncremental(reg, f, at, pass, incResults, &groupStats, fsp)
		} else {
			res, items = advanceFull(reg, at, fullResults, &groupStats, fsp)
		}
		res.TraceID = tid
		if r.emit(reg, res, items, memberStart, rec, fsp) {
			delivered++
		}
		fsp.End()
	}
	elapsed := time.Since(start)
	g.latency.ObserveExemplar(elapsed, tid)

	var evals, saved int64
	if pass != nil {
		evals, saved = pass.Misses(), pass.Hits()
	}
	for _, fe := range fullResults {
		evals++
		saved += int64(fe.consumers - 1)
	}
	for _, adv := range incResults {
		saved += int64(adv.consumers - 1)
	}
	if gsp != nil {
		gsp.SetDetail(fmt.Sprintf("group=%s members=%d evals=%d saved=%d", g.pathSig, len(members), evals, saved))
	}
	gsp.End()
	r.mu.Lock()
	g.sharedEvals += evals
	g.sharedSaved += saved
	g.fanout += delivered
	mergeStats(&g.stats, &groupStats)
	r.sharedEvals += evals
	r.sharedSaved += saved
	r.fanout += delivered
	r.mu.Unlock()
}

// fullEval is one shared full-mode evaluation: the result (or error)
// every member with the same plan identity diffs against its own seen
// state.
type fullEval struct {
	seq       xq.Sequence
	err       error
	consumers int
}

// incAdvance is one shared incremental engine advance: the first member
// holding the engine performs it; every other member with the same plan
// identity consumes the memoized delta.
type incAdvance struct {
	delta     xq.Sequence
	err       error
	stats     *obs.EvalStats
	consumers int
}

// advanceIncremental advances one incremental registration. Members
// sharing an engine (identical plan identity) advance it once per
// arrival — the first member pays, the rest consume the delta; unit
// evaluations inside the advance are further deduped across DIFFERENT
// plans through the group's shared pass. A member flagged needReseed
// re-emits the whole standing result (serial-deduped snapshot) instead
// of the incremental delta, without disturbing the share. It returns the
// member's undelivered result and its standing item count.
func (r *Registry) advanceIncremental(reg *Registration, f *fragment.Fragment, at time.Time,
	pass *inc.SharedPass, results map[string]*incAdvance, groupStats *obs.EvalStats, fsp *obs.Span) (Result, int) {
	reg.mu.Lock()
	reseed := reg.needReseed
	reg.needReseed = false
	reg.mu.Unlock()
	adv, ok := results[reg.incKey]
	if !ok {
		stats := &obs.EvalStats{Plan: reg.q.Mode.String() + "+inc"}
		delta, err := reg.eng.ApplyShared(f, at, reg.lim, stats, pass)
		adv = &incAdvance{delta: delta, err: err, stats: stats}
		results[reg.incKey] = adv
		mergeStats(groupStats, stats)
	}
	adv.consumers++
	// every member publishes the advance's cost profile as its own
	// LastStats (an EXPLAIN on any member shows what this arrival cost
	// the share, not zero)
	reg.q.RecordStats(adv.stats)
	if reseed {
		r.mu.Lock()
		r.reseeds++
		r.mu.Unlock()
	}
	if adv.err != nil {
		if reseed {
			// the re-emission is still owed
			reg.mu.Lock()
			reg.needReseed = true
			reg.mu.Unlock()
		}
		return Result{At: at, Err: adv.err}, 0
	}
	delta := adv.delta
	if reseed {
		delta = snapshotDelta(reg.eng)
		fsp.SetDetail("reseed")
	} else if fsp != nil {
		fsp.SetDetail(fmt.Sprintf("delta=%d", len(delta)))
	}
	bytes, hwm := reg.eng.BufferedBytes(), reg.eng.BufferHWMBytes()
	reg.mu.Lock()
	reg.noteBuffer(bytes, hwm)
	degraded := reg.degraded
	reg.mu.Unlock()
	return Result{At: at, Delta: delta, Degraded: degraded}, int(adv.stats.BufferedItems)
}

// snapshotDelta renders the engine's standing result as a re-emission
// delta: first occurrence per serialized form, in output order.
func snapshotDelta(eng *inc.Engine) xq.Sequence {
	snap := eng.ItemsSnapshot()
	seen := make(map[string]bool, len(snap))
	var delta xq.Sequence
	for _, it := range snap {
		key := xq.ItemKey(it)
		if seen[key] {
			continue
		}
		seen[key] = true
		delta = append(delta, it)
	}
	return delta
}

// advanceFull advances one full-mode registration: the evaluation is
// computed once per distinct plan identity in the group and diffed
// against this registration's own previous-result serials. The delta
// state is generation-scoped — this evaluation's serials replace the
// previous ones wholesale — so its memory is bounded by the standing
// result, not the output history. It returns the member's undelivered
// result and its standing item count.
func advanceFull(reg *Registration, at time.Time, results map[string]*fullEval,
	groupStats *obs.EvalStats, fsp *obs.Span) (Result, int) {
	fe, ok := results[reg.fullKey]
	if !ok {
		// the group's first member with this plan identity pays for the
		// evaluation; the rest of the share reuses the sequence below
		seq, err := reg.q.EvalLimits(context.Background(), at, reg.lim)
		fe = &fullEval{seq: seq, err: err}
		results[reg.fullKey] = fe
		stats := reg.q.LastStats()
		mergeStats(groupStats, &stats)
	}
	fe.consumers++
	if fe.err != nil {
		return Result{At: at, Err: fe.err}, 0
	}
	reg.mu.Lock()
	next := make(map[string]bool, len(fe.seq))
	var delta xq.Sequence
	var bytes int64
	for _, it := range fe.seq {
		key := xq.ItemKey(it)
		if next[key] {
			continue
		}
		next[key] = true
		bytes += int64(len(key))
		if !reg.seen[key] {
			delta = append(delta, it)
		}
	}
	reg.seen = next
	reg.lastItems = fe.seq
	reg.needReseed = false
	reg.noteBuffer(bytes, bytes)
	degraded := reg.degraded
	reg.mu.Unlock()
	if fsp != nil {
		fsp.SetDetail(fmt.Sprintf("items=%d delta=%d", len(fe.seq), len(delta)))
	}
	return Result{At: at, Items: fe.seq, Delta: delta, Degraded: degraded}, len(fe.seq)
}

// emit finishes one member's share of an arrival: a governed failure
// degrades the registration instead of surfacing as an error, degraded
// and dropped deliveries flag the trace, and the member's latency and
// per-evaluation log event are recorded. It reports whether the result
// was delivered.
func (r *Registry) emit(reg *Registration, res Result, items int, start time.Time,
	rec *obs.FlightRecorder, fsp *obs.Span) bool {
	tid := res.TraceID
	if res.Err != nil {
		if reason, governed := governedFailure(res.Err); governed {
			reg.Invalidate(reason)
			rec.Flag(tid, "governed")
			fsp.SetDetail("governed")
			res = Result{At: res.At, Degraded: reason, TraceID: tid}
		} else {
			fsp.SetDetail("error")
		}
	} else if res.Degraded != "" {
		rec.Flag(tid, "degraded")
	}
	delivered := reg.deliver(res)
	if !delivered {
		rec.Flag(tid, "backpressure")
	}
	elapsed := time.Since(start)
	reg.latency.ObserveExemplar(elapsed, tid)
	if l := r.logger.Load(); l != nil {
		level := slog.LevelDebug
		if res.Degraded != "" || res.Err != nil {
			level = slog.LevelWarn
		}
		l.LogAttrs(context.Background(), level, "continuous evaluation",
			slog.String("component", "registry"), slog.Int64("reg", reg.id),
			slog.String("plan", reg.q.Mode.String()), slog.Int("items", items),
			slog.Int("delta", len(res.Delta)), slog.Duration("latency", elapsed),
			slog.String("degraded", res.Degraded))
	}
	return delivered
}

// governedFailure classifies an evaluation error as resource governance
// (budget trip, deadline, overload rejection) and renders the
// degradation reason.
func governedFailure(err error) (string, bool) {
	var re *budget.ResourceError
	if errors.As(err, &re) {
		return "degraded: evaluation aborted: " + re.Error(), true
	}
	var oe *xcql.OverloadError
	if errors.As(err, &oe) {
		return "degraded: evaluation rejected: " + oe.Error(), true
	}
	return "", false
}

// InvalidateAll degrades every registration (transport gap, durable-
// bridge hole): each one reseeds and re-emits on its next arrival.
func (r *Registry) InvalidateAll(reason string) {
	r.mu.Lock()
	regs := make([]*Registration, 0, len(r.regs))
	for _, reg := range r.regs {
		regs = append(regs, reg)
	}
	r.mu.Unlock()
	for _, reg := range regs {
		reg.Invalidate("degraded: " + reason)
	}
}

// AttachClient wires a stream client into the registry: every applied
// fragment triggers one shared evaluation pass, and a sequence gap
// invalidates every registration — a lost filler can never silently
// narrow any subscriber's result.
func (r *Registry) AttachClient(c *stream.Client) {
	c.OnGap(func(g stream.Gap) { r.InvalidateAll(g.String()) })
	c.OnFragment(func(f *fragment.Fragment) { r.Apply(f) })
}

// AttachServer consumes a stream server's fragment flow in-process (the
// service shape: registry and broadcast server in one host). Each
// published fragment is applied to st (when non-nil — the store the
// registered queries read) and then evaluated. The returned stop
// function cancels the subscription and waits for the pump goroutine.
func (r *Registry) AttachServer(s *stream.Server, st *fragment.Store) (stop func()) {
	sub := s.Subscribe(256, true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range sub.C() {
			if st != nil {
				if err := st.Add(f); err != nil {
					continue
				}
			}
			r.Apply(f)
		}
	}()
	return func() {
		sub.Cancel()
		<-done
	}
}

// Stats snapshots the registry's process-level counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Registrations:     len(r.regs),
		Groups:            len(r.groups),
		Applies:           r.applies,
		SharedEvals:       r.sharedEvals,
		SharedSaved:       r.sharedSaved,
		Fanout:            r.fanout,
		Overloads:         r.overloads,
		BackpressureDrops: r.drops,
		Reseeds:           r.reseeds,
	}
}

// Groups snapshots every live sharing group, sorted by key.
func (r *Registry) Groups() []GroupStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GroupStats, 0, len(r.groups))
	for _, g := range r.groups {
		shared := 0
		for _, n := range g.sigRef {
			if n > 1 {
				shared++
			}
		}
		out = append(out, GroupStats{
			Key:         g.pathSig,
			Members:     len(g.members),
			SharedUnits: shared,
			SharedEvals: g.sharedEvals,
			SharedSaved: g.sharedSaved,
			Fanout:      g.fanout,
			Stats:       g.stats,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Registrations snapshots every live registration's counters, sorted by
// id.
func (r *Registry) Registrations() []RegStats {
	r.mu.Lock()
	regs := make([]*Registration, 0, len(r.regs))
	for _, reg := range r.regs {
		regs = append(regs, reg)
	}
	r.mu.Unlock()
	sort.Slice(regs, func(i, j int) bool { return regs[i].id < regs[j].id })
	out := make([]RegStats, 0, len(regs))
	for _, reg := range regs {
		out = append(out, reg.Stats())
	}
	return out
}

// mergeStats accumulates src's cost counters into dst (wall times and
// distribution fields are left alone — the group latency histogram
// covers time).
func mergeStats(dst, src *obs.EvalStats) {
	dst.FillersScanned += src.FillersScanned
	dst.HolesResolved += src.HolesResolved
	dst.TSIDLookups += src.TSIDLookups
	dst.TSIDIndexHits += src.TSIDIndexHits
	dst.TSIDIndexMisses += src.TSIDIndexMisses
	dst.BytesMaterialized += src.BytesMaterialized
	dst.NodesConstructed += src.NodesConstructed
	dst.Steps += src.Steps
	dst.Items += src.Items
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.ParallelTasks += src.ParallelTasks
	dst.HandlerInvocations += src.HandlerInvocations
	dst.BufferedItems += src.BufferedItems
	dst.SharedUnitHits += src.SharedUnitHits
	dst.SharedUnitMisses += src.SharedUnitMisses
	if src.BufferHWMBytes > dst.BufferHWMBytes {
		dst.BufferHWMBytes = src.BufferHWMBytes
	}
}
